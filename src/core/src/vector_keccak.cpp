#include "kvx/core/vector_keccak.hpp"

#include <cstring>
#include <string_view>

#include "kvx/common/error.hpp"
#include "kvx/common/strings.hpp"
#include "kvx/obs/flight_recorder.hpp"
#include "kvx/obs/metrics.hpp"

namespace kvx::core {

namespace {

/// Every injector-produced error message carries this marker (see
/// fault_injector.cpp), which is how forensics tell injected failures from
/// genuine ones without threading a flag through the exception. Searched
/// as a substring because what() wraps the message in an error-category
/// prefix ("sim: ...").
bool is_injected_error(const char* error) noexcept {
  return std::string_view(error).find("injected fault") !=
         std::string_view::npos;
}

obs::Counter& materializations_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "kvx_sim_materializations_total",
      "Register files and data memories rebuilt from a direct dispatch's "
      "input because something read them");
  return c;
}

sim::ProcessorConfig processor_config(const VectorKeccakConfig& c) {
  sim::ProcessorConfig pc;
  pc.vector.elen_bits = arch_elen(c.arch);
  pc.vector.ele_num = c.ele_num;
  pc.vector.sn = c.sn();
  return pc;
}

}  // namespace

namespace {

ProgramOptions program_options(const VectorKeccakConfig& c, bool single_round) {
  ProgramOptions o;
  o.arch = c.arch;
  o.ele_num = c.ele_num;
  o.rounds = c.rounds;
  o.single_round = single_round;
  o.first_round = c.first_round;
  return o;
}

}  // namespace

std::shared_ptr<const KeccakProgram> VectorKeccak::build_program(
    const VectorKeccakConfig& config) {
  return std::make_shared<const KeccakProgram>(
      build_keccak_program(program_options(config, false)));
}

VectorKeccak::VectorKeccak(const VectorKeccakConfig& config)
    : VectorKeccak(config, build_program(config)) {}

VectorKeccak::VectorKeccak(const VectorKeccakConfig& config,
                           std::shared_ptr<const KeccakProgram> program)
    : config_(config),
      program_(std::move(program)),
      proc_(std::make_unique<sim::SimdProcessor>(processor_config(config))) {
  KVX_CHECK_MSG(config_.sn() >= 1, "EleNum must allow at least one state");
  KVX_CHECK_MSG(program_ != nullptr, "shared program must not be null");
  KVX_CHECK_MSG(program_->options.arch == config_.arch &&
                    program_->options.ele_num == config_.ele_num &&
                    program_->options.rounds == config_.rounds &&
                    program_->options.first_round == config_.first_round &&
                    !program_->options.single_round,
                "shared program was built for a different configuration");
  proc_->load_program(program_->image);
  state_base_ = program_->image.symbol("state");

  // The staged-state area is the verify region of the trace compiler's
  // data-independence check: its contents differ between the two recording
  // runs, so any program whose control flow or operands depend on state
  // data is rejected. Rejection (genuine or injected) demotes tier by tier
  // — jit → host-simd → interpreter — and each demotion is counted.
  sim::TraceCompileOptions opts;
  opts.verify_base = state_base_;
  opts.verify_len = usize{5} * config_.ele_num * 8;
  sim::FaultInjector* inj = config_.fault_injector.get();
  sim::TraceCache& cache = sim::TraceCache::global();
  for (sim::ExecBackend tier = config_.backend;
       tier != sim::ExecBackend::kInterpreter;
       tier = sim::demote_backend(tier)) {
    try {
      // Injected compile failures are drawn here, NOT inside the trace
      // cache: the cache caches rejections negatively, and an injected
      // fault must never poison the shared artifact for other shards.
      if (inj != nullptr && inj->draw(sim::FaultSite::kTraceCompile)) {
        inj->fail_compile(std::string(sim::backend_name(tier)));
      }
      if (tier == sim::ExecBackend::kJit) {
        jit_ = cache.get_or_compile_jit(program_->image,
                                        processor_config(config_), opts);
        // The jit only runs the direct path, so its plan must stage
        // exactly this program's state region.
        if (!is_direct(jit_->host_simd())) {
          throw SimError("jit: plan stages states outside the state symbol");
        }
        // Demotion target of transient jit dispatch faults (including
        // host-ISA drift): the native code shares its host-SIMD plan, so
        // no extra cache round trip.
        hs_ = jit_->shared_host_simd();
      } else {
        hs_ = cache.get_or_compile_host_simd(program_->image,
                                             processor_config(config_), opts);
      }
      break;
    } catch (const SimError& e) {
      jit_ = nullptr;
      hs_ = nullptr;
      construction_attempts_.push_back(
          {tier, e.what(), is_injected_error(e.what())});
      note_fallback(tier, sim::demote_backend(tier), e.what());
    }
  }
  last_backend_.store(active_backend(), std::memory_order_relaxed);
  if (hs_ != nullptr) {
    // The recording is immutable and both trace-backed tiers pass its
    // timing and marker stream through verbatim, so timing and attribution
    // are computed here instead of on every dispatch.
    trace_timing_.total_cycles = hs_->total_cycles();
    trace_timing_.permutation_cycles =
        hs_->cycles_between(Markers::kPermStart, Markers::kPermEnd);
    trace_timing_.instructions = hs_->instructions();
    trace_step_cycles_ = attribute_step_cycles(hs_->markers());
    direct_ = is_direct(*hs_);
    if (direct_) pending_states_.reserve(config_.sn());
  }
}

bool VectorKeccak::is_direct(const sim::HostSimdTrace& hs) const noexcept {
  return hs.direct_state_base() == state_base_ && hs.sn() == config_.sn();
}

std::string_view VectorKeccak::host_form(sim::ExecBackend tier) const {
  if (tier == sim::ExecBackend::kJit && jit_ != nullptr) {
    return sim::host_simd_isa_name(jit_->isa());
  }
  if (tier == sim::ExecBackend::kHostSimd && hs_ != nullptr) {
    // Only the direct path runs the plane kernels.
    const u32 sn = config_.sn();
    const sim::HostSimdIsa isa = sim::host_simd_dispatch_isa(sn);
    return direct_ ? sim::host_simd_form_name(isa, sn)
                   : sim::host_simd_isa_name(isa);
  }
  return {};
}

void VectorKeccak::note_fallback(sim::ExecBackend from, sim::ExecBackend to,
                                 const char* error) {
  fallbacks_ += 1;
  last_fallback_error_ = error;
  obs::FlightRecorder::global().record(
      obs::FlightEventType::kBackendDemotion,
      static_cast<u16>((static_cast<u16>(from) << 8) |
                       static_cast<u16>(to)),
      is_injected_error(error) ? 1 : 0, obs::flight_hash(error));
}

void VectorKeccak::stage_states(std::span<const keccak::State> states) const {
  // Plane-major layout (paper Figure 5): row y holds lane (x, y) of state s
  // at element 5s + x. Unused elements are zeroed. One lane is one aligned
  // 8-byte copy into a reused scratch block (lanes are little-endian u64s,
  // same as the simulated memory), staged with a single block write.
  const unsigned e = config_.ele_num;
  stage_block_.assign(usize{5} * e * 8, 0);
  for (unsigned y = 0; y < 5; ++y) {
    for (usize s = 0; s < states.size(); ++s) {
      for (unsigned x = 0; x < 5; ++x) {
        const u64 lane = states[s].lane(x, y);
        std::memcpy(&stage_block_[(y * e + 5 * s + x) * 8], &lane, 8);
      }
    }
  }
  proc_->dmem().write_block(state_base_, stage_block_);
}

void VectorKeccak::unstage_states(std::span<keccak::State> states) const {
  const unsigned e = config_.ele_num;
  stage_block_.resize(usize{5} * e * 8);
  proc_->dmem().read_block(state_base_, stage_block_);
  for (unsigned y = 0; y < 5; ++y) {
    for (usize s = 0; s < states.size(); ++s) {
      for (unsigned x = 0; x < 5; ++x) {
        std::memcpy(&states[s].lane(x, y),
                    &stage_block_[(y * e + 5 * s + x) * 8], 8);
      }
    }
  }
}

const sim::SimdProcessor& VectorKeccak::processor() const {
  materialize();
  return *proc_;
}

void VectorKeccak::materialize() const {
  if (!pending_) return;
  pending_ = false;
  stage_states(pending_states_);
  proc_->vector().clear_registers();
  hs_->execute(proc_->vector(), proc_->dmem(), proc_->config().cycle_model);
  materializations_counter().inc();
}

void VectorKeccak::permute(std::span<keccak::State> states) {
  if (states.size() > config_.sn()) {
    throw Error(strfmt("permute: %zu states exceed SN=%u", states.size(),
                       config_.sn()));
  }
  sim::ExecBackend tier = active_backend();
  dispatch_attempts_.clear();
  for (;;) {
    try {
      run_backend(tier, states);
      last_backend_.store(tier, std::memory_order_relaxed);
      dispatch_attempts_.push_back({tier, "", false});
      return;
    } catch (const SimError& e) {
      dispatch_attempts_.push_back(
          {tier, e.what(), is_injected_error(e.what())});
      if (tier == sim::ExecBackend::kInterpreter) throw;
      // A failed tier never writes the caller's states, and each retry
      // restages them, so whatever the faulted tier left in the register
      // file or the staged-state region (including injected bit flips)
      // cannot leak into the retry.
      const sim::ExecBackend to = sim::demote_backend(tier);
      note_fallback(tier, to, e.what());
      tier = to;
    }
  }
}

void VectorKeccak::run_backend(sim::ExecBackend tier,
                               std::span<keccak::State> states) {
  sim::FaultInjector* inj = config_.fault_injector.get();
  std::optional<sim::FaultKind> fault;
  if (inj != nullptr) {
    fault = inj->draw(sim::FaultSite::kExecute);
    if (fault == sim::FaultKind::kSimFault) {
      inj->throw_sim_fault(std::string(sim::backend_name(tier)));
    }
  }
  const auto corrupt = [&] {
    // Detected corruption: flip one bit in the tier's output state, then
    // raise — the demoted retry (or the caller's per-job error) takes over.
    inj->corrupt(*fault, proc_->vector(), proc_->dmem(), state_base_,
                 usize{5} * config_.ele_num * 8,
                 std::string(sim::backend_name(tier)));
  };
  if (direct_ && tier != sim::ExecBackend::kInterpreter) {
    // Direct path: the states go straight through the packed kernels. The
    // register file and data memory stay pending on a copy of the input
    // until something reads them (processor(), a fault to inject).
    pending_states_.assign(states.begin(), states.end());
    pending_ = true;
    if (fault.has_value()) {
      materialize();
      corrupt();
    }
    if (tier == sim::ExecBackend::kJit) {
      jit_->permute(states);
    } else {
      hs_->permute(states);
    }
    timing_ = trace_timing_;
    step_cycles_ = trace_step_cycles_;
    return;
  }
  // Every other dispatch stages, runs and unstages the whole machine, so
  // nothing is left pending.
  pending_ = false;
  stage_states(states);
  proc_->vector().clear_registers();
  if (tier == sim::ExecBackend::kHostSimd) {
    // Lowered segments on the host's own vector ISA plus replayed record
    // ranges; register file and data memory end up bit-identical to the
    // interpreter; timing passes through unchanged.
    hs_->execute(proc_->vector(), proc_->dmem(), proc_->config().cycle_model);
    timing_ = trace_timing_;
    step_cycles_ = trace_step_cycles_;
  } else {
    proc_->reset_run_state();
    if (inj != nullptr && inj->plan().at_instruction != 0) {
      // Site-addressed synthetic fault: throw out of the interpreter at a
      // chosen executed-instruction index (one-shot). The hook is cleared
      // on every exit path so later runs pay nothing for it.
      u64 executed = 0;
      proc_->set_trace([inj, &executed](u32, const isa::Instruction&) {
        if (inj->fire_instruction_fault(++executed)) {
          throw SimError(strfmt(
              "injected fault: synthetic fault at instruction %llu",
              static_cast<unsigned long long>(executed)));
        }
      });
      try {
        proc_->run();
      } catch (...) {
        proc_->set_trace({});
        throw;
      }
      proc_->set_trace({});
    } else {
      proc_->run();
    }
    timing_.total_cycles = proc_->cycles();
    timing_.permutation_cycles =
        proc_->cycles_between(Markers::kPermStart, Markers::kPermEnd);
    timing_.instructions = proc_->stats().instructions;
    step_cycles_ = attribute_step_cycles(proc_->markers());
  }
  if (fault.has_value()) corrupt();
  unstage_states(states);
}

u64 VectorKeccak::measure_round_cycles() const {
  const KeccakProgram p =
      build_keccak_program(program_options(config_, /*single_round=*/true));
  sim::SimdProcessor proc(processor_config(config_));
  proc.load_program(p.image);
  proc.run();
  return proc.cycles_between(Markers::kRoundStart, Markers::kRoundEnd);
}

u64 VectorKeccak::measure_permutation_cycles() {
  std::vector<keccak::State> states(config_.sn());
  permute(states);
  return timing_.permutation_cycles;
}

}  // namespace kvx::core
