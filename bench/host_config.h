// The host context every checked-in BENCH_*.json records next to its
// numbers: hardware threads, the SIMD level the kernels dispatched to,
// and the build (CMake build type, whether -march=native was used).  A
// number without this context cannot be compared across machines.

#ifndef PMI_BENCH_HOST_CONFIG_H_
#define PMI_BENCH_HOST_CONFIG_H_

#include <cstdio>
#include <string>
#include <thread>

#include "src/core/simd.h"

// Defined per bench target by CMakeLists.txt.
#ifndef PMI_BUILD_TYPE
#define PMI_BUILD_TYPE "unknown"
#endif
#ifndef PMI_MARCH_NATIVE
#define PMI_MARCH_NATIVE 0
#endif

namespace pmi {

inline unsigned HardwareThreads() {
  return std::thread::hardware_concurrency();
}

/// JSON members (no braces) for a bench's "config" object.
inline std::string HostConfigJson() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"hardware_threads\": %u, \"simd\": \"%s\", "
                "\"build_type\": \"%s\", \"march_native\": %s",
                HardwareThreads(), SimdLevelName(SimdLevelInUse()),
                PMI_BUILD_TYPE, PMI_MARCH_NATIVE ? "true" : "false");
  return buf;
}

/// JSON member for a row measured with `threads` concurrent threads:
/// a scaling number recorded on fewer hardware threads than it uses
/// measures the scheduler, not the code, so it is flagged.
inline std::string ValidJson(unsigned threads) {
  return threads <= HardwareThreads() ? "\"valid\": true"
                                      : "\"valid\": false";
}

}  // namespace pmi

#endif  // PMI_BENCH_HOST_CONFIG_H_
