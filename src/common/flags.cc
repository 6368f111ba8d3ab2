#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace airindex {
namespace {

bool BadFlagValue(const char* arg, size_t prefix) {
  std::fprintf(stderr, "invalid value for %.*s: \"%s\"\n",
               static_cast<int>(prefix - 1), arg, arg + prefix);
  return false;
}

}  // namespace

bool ParseDoubleFlag(const char* arg, size_t prefix, double* out) {
  const char* value = arg + prefix;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE) {
    return BadFlagValue(arg, prefix);
  }
  *out = v;
  return true;
}

bool ParseUintFlag(const char* arg, size_t prefix, uint64_t* out) {
  const char* value = arg + prefix;
  if (*value == '-' || *value == '+') return BadFlagValue(arg, prefix);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    return BadFlagValue(arg, prefix);
  }
  *out = v;
  return true;
}

}  // namespace airindex
