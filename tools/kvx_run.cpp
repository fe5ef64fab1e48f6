// kvx-run — execute a KVXIMG1 image (or assemble a .s on the fly) on the
// simulated SIMD processor and report cycles, markers and final registers.
//
//   kvx-run program.img|program.s [--elen 32|64] [--elenum N] [--trace]
//           [--max-cycles N]
//           [--backend interpreter|host-simd|jit]
//
// --backend host-simd records the program once into a pre-decoded kernel
// trace, matches its Keccak steps and runs the host-SIMD plan (see
// host_simd.hpp): lowered segments on the host's own vector ISA, picked by
// CPUID, and replayed records for everything else. The reported cycles,
// markers and final registers come from the recording run and are
// bit-identical to the interpreter's; the backend line names the ISA that
// actually dispatched. --backend jit emits the whole plan as one native
// x86-64 function (see jit/jit_trace.hpp) and falls back to host-simd when
// emission is impossible; a rejected recording falls back to the
// interpreter.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "kvx/asm/assembler.hpp"
#include "kvx/asm/image_io.hpp"
#include "kvx/common/cli.hpp"
#include "kvx/common/error.hpp"
#include "kvx/core/step_attribution.hpp"
#include "kvx/isa/disasm.hpp"
#include "kvx/sim/host_simd.hpp"
#include "kvx/sim/jit/jit_trace.hpp"
#include "kvx/sim/processor.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s program.img|program.s [--elen 32|64] [--elenum N]\n"
               "       [--trace] [--profile] [--max-cycles N]\n"
               "       [--backend BACKEND]   (one of: %s)\n",
               prog, std::string(kvx::sim::kBackendNamesHelp).c_str());
  return 2;
}

bool ends_with(const std::string& s, const char* suffix) {
  const kvx::usize n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  kvx::sim::ProcessorConfig cfg;
  cfg.vector.elen_bits = 64;
  cfg.vector.ele_num = 5;
  bool trace = false;
  bool profile = false;
  kvx::sim::ExecBackend backend = kvx::sim::ExecBackend::kInterpreter;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--elen" && i + 1 < argc) {
      cfg.vector.elen_bits =
          kvx::cli::require_unsigned("kvx-run", "--elen", argv[++i], 32, 64);
      if (cfg.vector.elen_bits != 32 && cfg.vector.elen_bits != 64) {
        std::fprintf(stderr, "kvx-run: --elen must be 32 or 64\n");
        return 2;
      }
    } else if (a == "--elenum" && i + 1 < argc) {
      cfg.vector.ele_num =
          kvx::cli::require_unsigned("kvx-run", "--elenum", argv[++i], 1, 64);
    } else if (a == "--max-cycles" && i + 1 < argc) {
      cfg.max_cycles =
          kvx::cli::require_u64("kvx-run", "--max-cycles", argv[++i], 1);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--profile") {
      profile = true;
    } else if (a == "--backend" && i + 1 < argc) {
      const auto parsed = kvx::sim::parse_backend(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr,
                     "kvx-run: unknown backend '%s' (accepted: %s)\n", argv[i],
                     std::string(kvx::sim::kBackendNamesHelp).c_str());
        return 2;
      }
      backend = *parsed;
    } else if (!a.empty() && a[0] != '-' && input.empty()) {
      input = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) return usage(argv[0]);

  try {
    kvx::assembler::Program program;
    if (ends_with(input, ".s") || ends_with(input, ".asm")) {
      std::ifstream in(input);
      if (!in) throw kvx::Error("cannot open " + input);
      std::ostringstream src;
      src << in.rdbuf();
      program = kvx::assembler::assemble(src.str());
    } else {
      std::ifstream in(input, std::ios::binary);
      if (!in) throw kvx::Error("cannot open " + input);
      program = kvx::assembler::load_image(in);
    }

    kvx::sim::SimdProcessor proc(cfg);
    proc.load_program(program);

    std::shared_ptr<const kvx::sim::HostSimdTrace> hs;
    std::shared_ptr<const kvx::sim::JitTrace> jit;
    if (backend != kvx::sim::ExecBackend::kInterpreter) {
      if (trace) {
        std::fprintf(stderr,
                     "kvx-run: --trace needs per-instruction execution; "
                     "using the interpreter backend\n");
      } else {
        // The staged-state area (when the program names one) doubles as the
        // verify region of the data-independence check, as in VectorKeccak —
        // clamped to the next data symbol so the randomized fill never
        // clobbers constant tables (e.g. interleave index vectors).
        kvx::sim::TraceCompileOptions opts;
        const auto it = program.symbols.find("state");
        if (it != program.symbols.end()) {
          kvx::usize len = kvx::usize{5} * cfg.vector.ele_num * 8;
          for (const auto& [name, addr] : program.symbols) {
            if (addr > it->second) {
              len = std::min<kvx::usize>(len, addr - it->second);
            }
          }
          opts.verify_base = it->second;
          opts.verify_len = len;
        }
        kvx::sim::TraceCache& cache = kvx::sim::TraceCache::global();
        try {
          hs = cache.get_or_compile_host_simd(program, cfg, opts);
        } catch (const kvx::SimError& e) {
          std::fprintf(stderr,
                       "kvx-run: trace compilation rejected (%s); "
                       "using the interpreter backend\n",
                       e.what());
        }
        if (hs != nullptr && backend == kvx::sim::ExecBackend::kJit) {
          try {
            jit = cache.get_or_compile_jit(program, cfg, opts);
          } catch (const kvx::SimError& e) {
            std::fprintf(stderr,
                         "kvx-run: jit emission rejected (%s); "
                         "using the host-simd backend\n",
                         e.what());
          }
        }
      }
    }
    if (hs != nullptr) {
      // The run is read back as a whole machine, so both trace tiers
      // execute the full plan: jit code only runs the direct path
      // (caller states in, states out), and its machine state is by
      // construction this plan's.
      hs->execute(proc.vector(), proc.dmem(), proc.config().cycle_model);
    } else {
      if (trace) {
        proc.set_trace([](kvx::u32 pc, const kvx::isa::Instruction& inst) {
          std::printf("[%08x] %s\n", pc, kvx::isa::disassemble(inst).c_str());
        });
      }
      proc.run();
    }

    const kvx::sim::RunStats& st =
        hs != nullptr ? hs->run_stats() : proc.stats();
    const auto& markers = hs != nullptr ? hs->markers() : proc.markers();
    if (jit != nullptr) {
      std::printf(
          "backend: jit (isa %s, %zu code bytes, %zu round constants, "
          "%.1f%% of records lowered; fused coverage %.1f%%)\n",
          std::string(kvx::sim::host_simd_isa_name(jit->isa())).c_str(),
          jit->code_size(), jit->literal_count(),
          100.0 * jit->lowered_coverage(), 100.0 * hs->fused().coverage());
    } else if (hs != nullptr) {
      std::printf(
          "backend: host-simd (isa %s, %zu lowered kernels in %zu segments, "
          "%.1f%% of records; fused coverage %.1f%%)\n",
          std::string(kvx::sim::host_simd_isa_name(
                          kvx::sim::host_simd_dispatch_isa(hs->sn())))
              .c_str(),
          hs->lowered_kernel_count(), hs->segment_count(),
          100.0 * hs->lowered_coverage(), 100.0 * hs->fused().coverage());
    }
    std::printf("halted after %llu cycles, %llu instructions "
                "(%llu scalar, %llu vector)\n",
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(st.instructions),
                static_cast<unsigned long long>(st.scalar_instructions),
                static_cast<unsigned long long>(st.vector_instructions));
    if (!markers.empty()) {
      // Loop-mode Keccak programs emit step markers in every round body
      // (~150 markers); summarize per id instead of one line each.
      if (markers.size() <= 16) {
        std::printf("markers:\n");
        for (const auto& m : markers) {
          std::printf("  id %-3u @ cycle %llu\n", m.id,
                      static_cast<unsigned long long>(m.cycle));
        }
      } else {
        std::map<kvx::u32, std::pair<kvx::usize, kvx::u64>> by_id;
        for (const auto& m : markers) {
          auto& [count, last] = by_id[m.id];
          ++count;
          last = m.cycle;
        }
        std::printf("markers (%zu total):\n", markers.size());
        for (const auto& [id, cl] : by_id) {
          std::printf("  id %-3u x%-4zu last @ cycle %llu\n", id, cl.first,
                      static_cast<unsigned long long>(cl.second));
        }
      }
      const kvx::obs::StepCycleStats steps =
          kvx::core::attribute_step_cycles(markers);
      if (steps.rounds != 0) {
        const auto pct = [&](kvx::u64 c) {
          return steps.total != 0
                     ? 100.0 * static_cast<double>(c) /
                           static_cast<double>(steps.total)
                     : 0.0;
        };
        std::printf("step cycles (%llu rounds):\n",
                    static_cast<unsigned long long>(steps.rounds));
        std::printf("  theta    %10llu  %5.1f%%\n",
                    static_cast<unsigned long long>(steps.theta),
                    pct(steps.theta));
        std::printf("  rho+pi   %10llu  %5.1f%%\n",
                    static_cast<unsigned long long>(steps.rho_pi),
                    pct(steps.rho_pi));
        std::printf("  chi+iota %10llu  %5.1f%%\n",
                    static_cast<unsigned long long>(steps.chi_iota),
                    pct(steps.chi_iota));
        if (steps.absorb != 0) {
          std::printf("  absorb   %10llu  %5.1f%%\n",
                      static_cast<unsigned long long>(steps.absorb),
                      pct(steps.absorb));
        }
        std::printf("  other    %10llu  %5.1f%%\n",
                    static_cast<unsigned long long>(steps.other),
                    pct(steps.other));
        std::printf("  total    %10llu\n",
                    static_cast<unsigned long long>(steps.total));
      }
    }
    if (profile) {
      std::printf("cycle profile (top 12):\n%s", st.cycle_profile(12).c_str());
    }
    std::printf("nonzero scalar registers:\n");
    for (unsigned r = 1; r < 32; ++r) {
      const kvx::u32 v = hs != nullptr ? hs->final_scalar_regs()[r]
                                       : proc.scalar().regs().read(r);
      if (v != 0) {
        std::printf("  %-5s = 0x%08x (%u)\n",
                    std::string(kvx::isa::xreg_name(r)).c_str(), v, v);
      }
    }
    return 0;
  } catch (const kvx::Error& e) {
    std::fprintf(stderr, "kvx-run: %s\n", e.what());
    return 1;
  }
}
