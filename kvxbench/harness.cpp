#include "harness.hpp"

#include <bit>
#include <cstdio>

#include "kvx/keccak/permutation.hpp"
#include "kvx/keccak/sp800_185.hpp"

namespace kvxb {

using kvx::engine::Algo;

double Histogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_ - 1);
  u64 seen = 0;
  for (usize i = 0; i < buckets_.size(); ++i) {
    const u64 c = buckets_[i];
    if (static_cast<double>(seen + c) <= target) {
      seen += c;
      continue;
    }
    if (i < kSub) return static_cast<double>(i);
    const usize shift = i / kSub - 1;
    const double lo = static_cast<double>((kSub + i % kSub) << shift);
    const double width = static_cast<double>(u64{1} << shift);
    const double within = (target - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(c);
    return lo + width * std::min(1.0, within);
  }
  return 0.0;  // unreachable: target < total_
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(
                                  q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), at, v.end());
  return *at;
}

void print_series(const char* label, const char* what, std::vector<double> v,
                  double scale) {
  std::fprintf(stderr, "  %s %s: n %zu", label, what, v.size());
  if (v.empty()) {
    std::fprintf(stderr, "\n");
    return;
  }
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v[static_cast<usize>(q * static_cast<double>(v.size() - 1) + 0.5)] *
           scale;
  };
  std::fprintf(stderr,
               " | min %.4g p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g "
               "max %.4g\n",
               at(0.0), at(0.1), at(0.25), at(0.5), at(0.75), at(0.9), at(1.0));
}

double median_of_best(const std::vector<double>& v, usize group, bool higher) {
  group = std::clamp<usize>(group, 1, std::max<usize>(1, v.size()));
  std::vector<double> best;
  for (usize i = 0; i + group <= v.size(); i += group) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = first + static_cast<std::ptrdiff_t>(group);
    best.push_back(higher ? *std::max_element(first, last)
                          : *std::min_element(first, last));
  }
  return median(std::move(best));
}

namespace {

/// The yardstick: Keccak-f[1600] written out plainly from FIPS 202 (θ, ρ and
/// π, χ, ι), scalar, one state. Its speed is what it measures, so it must
/// not change: it is kept here, apart from the library's permutations.
constexpr u64 kRoundConstants[24] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808Aull,
    0x8000000080008000ull, 0x000000000000808Bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008Aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000Aull,
    0x000000008000808Bull, 0x800000000000008Bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800Aull, 0x800000008000000Aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull};
/// ρ offsets and π destinations along the lane cycle that starts at (1, 0).
constexpr int kRho[24] = {1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
                          27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44};
constexpr int kPi[24] = {10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
                         15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1};

void yardstick_permute(u64 a[25]) {
  for (const u64 rc : kRoundConstants) {
    u64 c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    }
    for (int x = 0; x < 5; ++x) {
      const u64 d = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
      for (int y = 0; y < 25; y += 5) a[y + x] ^= d;
    }
    u64 carry = a[1];
    for (int i = 0; i < 24; ++i) {
      const u64 next = a[kPi[i]];
      a[kPi[i]] = std::rotl(carry, kRho[i]);
      carry = next;
    }
    for (int y = 0; y < 25; y += 5) {
      for (int x = 0; x < 5; ++x) c[x] = a[y + x];
      for (int x = 0; x < 5; ++x) a[y + x] ^= ~c[(x + 1) % 5] & c[(x + 2) % 5];
    }
    a[0] ^= rc;
  }
}

/// Permutations per probe: about 55 µs on the calibration host, short
/// enough to sit between two measurement windows.
constexpr int kProbePerms = 32;

}  // namespace

void HostSpeed::probe() {
  const u64 a = now_ns();
  for (int i = 0; i < kProbePerms; ++i) yardstick_permute(state_);
  last_ns_ = now_ns();
  rates_.push_back(kProbePerms / (static_cast<double>(last_ns_ - a) / 1e9));
}

double HostSpeed::rate() const { return nearest_rank(rates_, 0.99); }

void HostSpeed::print(const char* label) const {
  print_series(label, "yardstick perms/s", rates_, 1.0);
}

bool HostSpeed::yardstick_is_keccak() {
  kvx::SplitMix64 rng(25);
  kvx::keccak::State golden = random_states(rng, 1)[0];
  u64 lanes[25];
  std::copy(golden.flat().begin(), golden.flat().end(), lanes);
  yardstick_permute(lanes);
  kvx::keccak::permute(golden);
  return std::equal(lanes, lanes + 25, golden.flat().begin());
}

double HostSpeed::scale() const {
  const double r = rate();
  return r > 0.0 ? kNominalPermsPerS / r : 1.0;
}

CpuRotation::CpuRotation() {
  if (::sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (usize cpu = 0; cpu < static_cast<usize>(CPU_SETSIZE); ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    (void)::sched_setaffinity(0, sizeof original_, &original_);
  }
}

void CpuRotation::pin(usize k) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  (void)::sched_setaffinity(0, sizeof one, &one);
}

u32 Tracer::begin(const char* name, u64 id) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    stack_.push_back(kNone);
    return kNone;
  }
  const u32 idx = static_cast<u32>(spans_.size());
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? kNone : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(idx);
  return idx;
}

void Tracer::end(u32 idx) {
  if (idx != kNone) spans_[idx].end_ns = now_ns();
  if (!stack_.empty()) stack_.pop_back();
}

std::vector<Tracer::LayerTime> Tracer::self_times(u32 root) const {
  // Spans nest (each is closed before its parent), so a span's child
  // coverage is the plain sum of its direct children's durations.
  std::vector<u64> child_ns(spans_.size(), 0);
  std::vector<u8> inside(spans_.size(), root == kNone ? 1 : 0);
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (root != kNone) {
      inside[i] = (i == root) ||
                  (s.parent != kNone && s.parent < i && inside[s.parent] != 0);
    }
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<LayerTime> out;
  for (usize i = 0; i < spans_.size(); ++i) {
    if (inside[i] == 0) continue;
    const Span& s = spans_[i];
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    auto it = std::find_if(out.begin(), out.end(), [&](const LayerTime& l) {
      return l.layer == layer;
    });
    if (it == out.end()) {
      out.push_back({layer, 0.0, 0});
      it = out.end() - 1;
    }
    const u64 dur = s.end_ns - s.start_ns;
    it->self_ms += static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e6;
    it->spans += 1;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const u64 base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%llu}}%s\n",
                 s.name, static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

void compute_expected(JobSet& set) {
  set.expected.resize(set.jobs.size());
  set.message_bytes = 0;
  for (usize i = 0; i < set.jobs.size(); ++i) {
    set.expected[i] = kvx::engine::host_reference_digest(set.jobs[i]);
    set.message_bytes += set.jobs[i].message.size();
  }
}

u64 golden_permutations(const kvx::engine::HashJob& job) {
  const usize rate = kvx::keccak::rate_bytes(kvx::engine::base_function(job.algo));
  const usize out = job.resolved_out_len();
  usize absorbed = job.message.size();
  if (job.algo == Algo::kKmac128 || job.algo == Algo::kKmac256) {
    std::vector<u8> prefix = kvx::keccak::encode_string(std::string_view("KMAC"));
    const auto s_enc = kvx::keccak::encode_string(job.customization);
    prefix.insert(prefix.end(), s_enc.begin(), s_enc.end());
    absorbed += kvx::keccak::bytepad(prefix, rate).size() +
                kvx::keccak::bytepad(kvx::keccak::encode_string(job.key), rate)
                    .size() +
                kvx::keccak::right_encode(static_cast<u64>(out) * 8).size();
  }
  return absorbed / rate + 1 + (out + rate - 1) / rate - 1;
}

}  // namespace kvxb
