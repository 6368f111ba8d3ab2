#ifndef AIRINDEX_TESTS_TESTING_METRICS_DIGEST_H_
#define AIRINDEX_TESTS_TESTING_METRICS_DIGEST_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "device/metrics.h"
#include "sim/simulator.h"

namespace airindex::testing_support {

/// FNV-1a (64-bit) over a batch's simulated outputs: every system name and
/// every QueryMetrics field of every query, in order, except the
/// wall-clock-measured cpu_ms. Equal digests mean equal simulated results.
class MetricsDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }

  void Add(const device::QueryMetrics& m) {
    Add(m.tuning_packets);
    Add(m.latency_packets);
    Add(m.wait_packets);
    Add(m.wait_ms);
    Add(m.listen_ms);
    Add(m.corrupted_packets);
    Add(m.fec_recovered);
    Add(m.wait_slots);
    Add(m.latency_slots);
    Add(static_cast<uint64_t>(m.peak_memory_bytes));
    Add(static_cast<uint64_t>(m.distance));
    Add(static_cast<uint64_t>(m.regions_received));
    Add(m.cache_hits);
    Add(static_cast<uint64_t>(m.warm));
    Add(static_cast<uint64_t>(m.ok));
    Add(static_cast<uint64_t>(m.memory_exceeded));
  }

  void Add(const sim::BatchResult& batch) {
    for (const auto& s : batch.systems) {
      Add(std::string_view(s.system));
      for (const auto& m : s.per_query) Add(m);
    }
  }

  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline uint64_t DigestOf(const sim::BatchResult& batch) {
  MetricsDigest d;
  d.Add(batch);
  return d.value();
}

/// "0x%016x" form, so a failing comparison prints a pasteable constant.
inline std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_METRICS_DIGEST_H_
