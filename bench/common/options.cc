#include "common/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/flags.h"

namespace airindex::bench {

namespace {

[[noreturn]] void UsageExit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scale=F] [--queries=N] [--seed=N] "
               "[--loss=F] [--burst=N] [--corrupt=F] [--fec-rate=F] "
               "[--threads=N] [--repeat=N] [--full] [--no-heavy]\n",
               prog);
  std::exit(2);
}

}  // namespace

size_t BenchOptions::ScaledHeapBytes() const {
  const double heap = 8.0 * 1024 * 1024 * scale;
  return static_cast<size_t>(heap);
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // Strict numeric values: a malformed one names the flag and aborts
    // with the usage message.
    auto double_value = [&](size_t prefix) {
      double v = 0.0;
      if (!ParseDoubleFlag(arg, prefix, &v)) UsageExit(argv[0]);
      return v;
    };
    auto uint_value = [&](size_t prefix) {
      uint64_t v = 0;
      if (!ParseUintFlag(arg, prefix, &v)) UsageExit(argv[0]);
      return v;
    };
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opts.scale = double_value(8);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opts.queries = static_cast<size_t>(uint_value(10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts.seed = uint_value(7);
    } else if (std::strncmp(arg, "--loss=", 7) == 0) {
      opts.loss = double_value(7);
    } else if (std::strncmp(arg, "--burst=", 8) == 0) {
      const uint64_t burst = uint_value(8);
      opts.burst = burst > 1 ? static_cast<uint32_t>(burst) : 1;
    } else if (std::strncmp(arg, "--corrupt=", 10) == 0) {
      opts.corrupt = double_value(10);
      if (!(opts.corrupt >= 0.0) || opts.corrupt >= 1.0) {
        std::fprintf(stderr, "--corrupt must be in [0, 1)\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--fec-rate=", 11) == 0) {
      opts.fec_rate = double_value(11);
      if (!(opts.fec_rate >= 0.0) || opts.fec_rate > 1.0) {
        std::fprintf(stderr, "--fec-rate must be in [0, 1]\n");
        std::exit(2);
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opts.threads = static_cast<unsigned>(uint_value(10));
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      const uint64_t repeat = uint_value(9);
      opts.repeat = repeat > 1 ? static_cast<unsigned>(repeat) : 1;
    } else if (std::strcmp(arg, "--full") == 0) {
      opts.full = true;
    } else if (std::strcmp(arg, "--no-heavy") == 0) {
      opts.no_heavy = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fprintf(stdout,
                   "usage: %s [--scale=F] [--queries=N] [--seed=N] "
                   "[--loss=F] [--burst=N] [--corrupt=F] [--fec-rate=F] "
                   "[--threads=N] [--repeat=N] [--full] [--no-heavy]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag \"%s\"\n", arg);
      UsageExit(argv[0]);
    }
  }
  if (opts.full) {
    opts.scale = 1.0;
    if (opts.queries == 100) opts.queries = 400;  // the paper's count
  }
  return opts;
}

}  // namespace airindex::bench
