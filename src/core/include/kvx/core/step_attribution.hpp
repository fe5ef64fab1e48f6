// Fold a recorded marker stream into per-step cycle attribution.
//
// The generated programs bracket every round body with kRoundStart/kRoundEnd
// and emit a zero-cost marker at each step-mapping boundary (see Markers in
// program_builder.hpp), so the marker stream partitions the permutation
// window into contiguous segments. Each segment is attributed to the bucket
// of its *trailing* marker:
//
//   ..kStepRho            θ       (round start .. end of θ)
//   ..kStepPi, ..kStepChi ρπ      (ρ, then the π scatter)
//   ..kStepIota, ..kRoundEnd χι   (χ, then ι)
//   kAbsorb..kRoundStart  absorb  (on-device block staging)
//   anything else         other   (loop control between rounds/blocks)
//
// Since the segments tile [kPermStart .. kPermEnd] exactly, the invariant
// theta + rho_pi + chi_iota + absorb + other == total holds by construction
// on every backend — the host-simd and jit backends pass through the marker
// stream recorded from the interpreter bit-identically.
#pragma once

#include <span>

#include "kvx/obs/step_cycles.hpp"
#include "kvx/sim/processor.hpp"

namespace kvx::core {

/// Attribute a marker stream. When the stream contains a
/// kPermStart..kPermEnd pair, attribution covers exactly that window (the
/// paper's cycles/permutation region); otherwise the whole stream is used
/// (single-round programs: kRoundStart..kRoundEnd). Returns all-zero stats
/// for streams with fewer than two markers.
[[nodiscard]] obs::StepCycleStats attribute_step_cycles(
    std::span<const sim::Marker> markers);

}  // namespace kvx::core
