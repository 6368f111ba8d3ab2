#ifndef AIRINDEX_COMMON_FLAGS_H_
#define AIRINDEX_COMMON_FLAGS_H_

#include <cstddef>
#include <cstdint>

namespace airindex {

/// Strict double parse of a "--name=value" argument; `prefix` is the
/// length of "--name=". The value must consume entirely as a number (atof
/// reads "abc" as 0.0 without a word). On failure prints
/// `invalid value for --name: "value"` to stderr and returns false.
bool ParseDoubleFlag(const char* arg, size_t prefix, double* out);

/// Strict unsigned parse of a "--name=value" argument, reporting failures
/// like ParseDoubleFlag. Rejects a leading sign explicitly: strtoull would
/// wrap "-1" to 2^64-1.
bool ParseUintFlag(const char* arg, size_t prefix, uint64_t* out);

}  // namespace airindex

#endif  // AIRINDEX_COMMON_FLAGS_H_
