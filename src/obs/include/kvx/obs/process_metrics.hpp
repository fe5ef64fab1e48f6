// Build-info and process self-metrics.
//
// publish_build_info() registers the conventional Prometheus info gauge
//   kvx_build_info{version="...",compiler="...",host_simd_isa="...",jit="..."} 1
// and mirrors the same text into every post-mortem dump. register_
// process_metrics() binds kvx_process_rss_bytes, kvx_process_cpu_seconds_
// total and kvx_process_uptime_seconds so each scrape reads live values.
// Both are idempotent per registry generation and cheap to call from every
// engine construction (they survive MetricsRegistry::reset() in tests by
// simply re-registering).
#pragma once

#include <string>

#include "kvx/common/types.hpp"

namespace kvx::obs {

/// Version string baked into the library ("unknown" if the build did not
/// define KVX_VERSION_STRING).
[[nodiscard]] const char* build_version() noexcept;

/// Compiler identification string (__VERSION__).
[[nodiscard]] const char* build_compiler() noexcept;

/// Register/refresh kvx_build_info with the given dynamic labels and push
/// the text block into post-mortem dumps. `host_simd_isa` is what the
/// tier-zero lowering runs ("avx2", "avx512", "avx512-plane", "scalar",
/// ...); `jit` is "on"/"off".
void publish_build_info(const std::string& host_simd_isa,
                        const std::string& jit);

/// Bind kvx_process_rss_bytes (resident set, /proc/self/statm; 0 where
/// unavailable), kvx_process_cpu_seconds_total (getrusage user+sys) and
/// kvx_process_uptime_seconds (steady clock since first call).
void register_process_metrics();

}  // namespace kvx::obs
