// Measurement primitives of medbench: sample summaries with
// the ten-beyond percentile rule, a seeded Zipf sampler, the quiet
// window, the cycle clock, and the fixed open-loop schedule that times
// each request from when it was due.
//
// Everything here is free of medcrypt types so tests/harness_test.cpp
// can pin the arithmetic without building a deployment.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace medbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC through steady_clock), shared
/// by every thread of a run so timestamps from different threads order.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank index (1-based) of quantile `q` in `n` sorted samples:
/// ceil(q·n), clamped to [1, n]. The integer form avoids the float
/// rounding that would put ceil(0.99·100) at 100.
std::size_t percentile_rank(std::size_t n, double q);

/// Samples strictly above the nearest-rank `q` percentile of `n`.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - percentile_rank(n, q);
}

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it.
inline bool has_ten_beyond(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Smallest sample count whose `q` percentile has ten samples beyond.
std::size_t min_samples_for(double q);

/// Nearest-rank percentile of already sorted samples (0 when empty).
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Percentiles of one latency series, with its sample count and whether
/// the p99 meets the ten-beyond rule.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p75 = 0;
  double p90 = 0;
  double p99 = 0;
  std::size_t beyond_p99 = 0;
  bool p99_ok = false;
};

Summary summarize(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Seeded randomness for inputs
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, fully specified generator, so the inputs drawn
/// from a seed are the same on every platform and standard library
/// (std::uniform_*_distribution is implementation-defined).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1) from the top 53 bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, n) (Lemire's multiply-shift; the bias is
  /// below 2^-40 for the population sizes used here).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream id).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Zipf(s) rank sampler over [0, n): P(rank k) ∝ 1/(k+1)^s. Inverse-CDF
/// lookup, so a given SplitMix64 state always yields the same rank.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(SplitMix64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// The quiet window
// ---------------------------------------------------------------------------

/// Samples of one client (latencies in ms, or clock readings), each
/// stamped with the start time of the op it belongs to, so every sample
/// of an op falls in the second that op started in.
struct Series {
  std::vector<double> values;
  std::vector<std::int64_t> at_ns;

  void add(std::int64_t op_start_ns, double v) {
    at_ns.push_back(op_start_ns);
    values.push_back(v);
  }
};

/// The quiet window of a run: the share of its client-seconds in which
/// the host interfered least. On a shared host a vCPU runs each op in a
/// fast or a slow mode (the slow one about 1.3–1.4x, set from outside
/// the process, switching every few seconds and independently per vCPU),
/// and the share of time in each mode differs from run to run, so
/// whole-run percentiles jump between the modes. The client-seconds that
/// completed the most ops (ties: the least op time) are the fast-mode
/// ones; pooled percentiles over them measure the code, not the
/// neighbours.
///
/// A client-second is (client t, whole second s of the window): the ops
/// of client t that started in [start + s, start + s + 1) seconds.
class QuietWindow {
 public:
  /// `ops[t]` holds client t's completed ops; the window starts at
  /// `start_ns` and lasts `seconds` whole seconds. Keeps
  /// max(1, ⌊share · clients · seconds⌋) client-seconds.
  QuietWindow(const std::vector<const Series*>& ops, std::int64_t start_ns,
              int seconds, double share);

  /// The samples of `per_client[t]` whose op started in a kept
  /// client-second.
  std::vector<double> samples(const std::vector<const Series*>& per_client) const;

  std::size_t kept() const { return kept_; }  // client-seconds kept
  std::size_t ops() const { return ops_; }    // ops that started in them
  double op_ms() const { return op_ms_; }     // those ops' summed latency

 private:
  bool keeps(std::size_t client, std::int64_t at_ns) const;

  std::int64_t start_ns_;
  std::vector<std::vector<bool>> keep_;  // [client][second]
  std::size_t kept_ = 0;
  std::size_t ops_ = 0;
  double op_ms_ = 0;
};

// ---------------------------------------------------------------------------
// The cycle clock
// ---------------------------------------------------------------------------

/// The core clock, read by the benchmark's own code: a chain of integer
/// steps, each an add and an xor that depend on the step before, so a
/// step takes two core cycles on CPUs where both take one (every recent
/// x86-64 and AArch64 core). The chain is latency-bound and keeps one ALU
/// busy at a time, so a busy sibling hyperthread barely slows it: on the
/// host measured in README.md it read 13.9–14.4 µs per 20000 steps while
/// a multiplication-bound loop on the same vCPU slowed 2x. Dividing a
/// latency by its ns per cycle gives the latency in core cycles, which
/// no longer moves with the host's clock (README.md, "Latency in core
/// cycles").
class CycleClock {
 public:
  /// Runs `steps` steps; returns nanoseconds per core cycle.
  double ns_per_cycle(int steps);

  /// The chain's state after every step run so far (its use keeps the
  /// steps from being optimised away).
  std::uint64_t state() const { return state_; }

  /// One step of the chain.
  static std::uint64_t step(std::uint64_t x) { return (x + 0x9e3779b97f4a7c15ULL) ^ (x >> 7); }

 private:
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
};

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// A fixed, evenly spaced arrival schedule: event k is due at
/// start + k·period. Arrivals never depend on how fast the system
/// answers, which is what makes the loop open.
struct Schedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 1;

  std::int64_t due(std::uint64_t k) const {
    return start_ns + static_cast<std::int64_t>(k) * period_ns;
  }
};

/// One generator of an open loop. It owns events first, first+stride, …
/// of `schedule` that fall due before `end_ns`, waits until each is due
/// (never sending early), then runs it to completion. A generator that
/// falls behind sends the next event at once, late; `fire` receives the
/// due time so latency is measured from it — a stall therefore counts
/// against every request queued behind it, not only the stalled one.
///
/// `clock` supplies now() and sleep_until(t) (RealClock in runs, a fake
/// in tests); `fire(k, due_ns, start_ns)` performs event k.
template <typename ClockT, typename Fire>
void run_generator(ClockT& clock, const Schedule& schedule, std::uint64_t first,
                   std::uint64_t stride, std::int64_t end_ns, Fire&& fire) {
  for (std::uint64_t k = first; schedule.due(k) < end_ns; k += stride) {
    const std::int64_t due = schedule.due(k);
    clock.sleep_until(due);
    fire(k, due, clock.now());
  }
}

/// The process clock for run_generator.
struct RealClock {
  std::int64_t now() const { return now_ns(); }
  void sleep_until(std::int64_t t_ns) const {
    const std::int64_t wait = t_ns - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
};

}  // namespace medbench
