// Functional execution backends of the simulated SIMD processor.
//
// The interpreter is the reference backend: it fetches, decodes and
// dispatches every instruction through ScalarCore/VectorUnit. The host-SIMD
// backend (host_simd.hpp) runs a plan built from one recorded interpreter
// run: the compiled trace (compiled_trace.hpp) pre-decodes every executed
// instruction into a kernel record, the fusion matcher (trace_fusion.hpp)
// finds the records that form θ/ρπ/χι Keccak steps, and the plan lowers
// maximal runs of those steps to host vector intrinsics (AVX-512 / AVX2 /
// portable vector extensions, runtime CPUID dispatch) with several Keccak
// states packed per host register. Everything the plan does not lower
// replays its recorded records, so the backend is correct on arbitrary
// programs. The JIT backend (jit/) is tier zero: it emits the whole
// host-SIMD plan as one contiguous native x86-64 function per (program,
// ISA) into a W^X code buffer, and demotes to host-simd wherever native
// emission is impossible.
#pragma once

#include <optional>
#include <string_view>

namespace kvx::sim {

enum class ExecBackend {
  kInterpreter = 0,  ///< reference fetch/decode/dispatch interpreter
  kHostSimd = 3,     ///< recorded trace planned onto host SIMD (host_simd.hpp)
  kJit = 4,          ///< whole-plan native x86-64 emission (jit/jit_trace.hpp)
  /// Deprecated alias of kHostSimd, kept only because the frozen benchmark
  /// package (kvxbench/layers.cpp) still names it; the next change to that
  /// package deletes it. Nothing else may use it.
  kFusedTrace = kHostSimd,
};

// Flight-recorder demotion events and post-mortem dumps carry these values;
// they must never be renumbered.
static_assert(static_cast<int>(ExecBackend::kInterpreter) == 0);
static_assert(static_cast<int>(ExecBackend::kHostSimd) == 3);
static_assert(static_cast<int>(ExecBackend::kJit) == 4);

/// Stable name, also accepted by parse_backend:
/// "interpreter" / "host-simd" / "jit".
[[nodiscard]] constexpr std::string_view backend_name(ExecBackend b) noexcept {
  switch (b) {
    case ExecBackend::kHostSimd: return "host-simd";
    case ExecBackend::kJit: return "jit";
    default: return "interpreter";
  }
}

/// Next tier of the fail-soft fallback chain: jit → host-simd → interpreter.
/// The interpreter is the floor — it demotes to itself.
[[nodiscard]] constexpr ExecBackend demote_backend(ExecBackend b) noexcept {
  return b == ExecBackend::kJit ? ExecBackend::kHostSimd
                                : ExecBackend::kInterpreter;
}

/// Parse a backend name ("interpreter", "host-simd"/"hostsimd"/"simd",
/// "jit"/"native").
[[nodiscard]] inline std::optional<ExecBackend> parse_backend(
    std::string_view name) noexcept {
  if (name == "interpreter") return ExecBackend::kInterpreter;
  if (name == "host-simd" || name == "hostsimd" || name == "simd") {
    return ExecBackend::kHostSimd;
  }
  if (name == "jit" || name == "native") return ExecBackend::kJit;
  return std::nullopt;
}

/// Names parse_backend accepts, for CLI error messages.
inline constexpr std::string_view kBackendNamesHelp =
    "interpreter, host-simd, jit";

}  // namespace kvx::sim
