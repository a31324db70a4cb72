// Tests of the benchmark's own arithmetic: percentiles and the
// ten-beyond rule, Zipf determinism, due-time latency under a generator
// stall, span self time / residual, the quiet-window selection, the
// cycle clock's chain and the revocation oracle.
//
//   python3 medbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "trace.h"

namespace {

using namespace medbench;

int g_failures = 0;
int g_checks = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    ++g_checks;                                                       \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
    }                                                                 \
  } while (0)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void test_percentiles() {
  CHECK(percentile_rank(100, 0.99) == 99);
  CHECK(percentile_rank(100, 0.50) == 50);
  CHECK(percentile_rank(1, 0.99) == 1);
  CHECK(percentile_rank(7, 0.5) == 4);
  CHECK(samples_beyond(100, 0.99) == 1);
  CHECK(samples_beyond(0, 0.99) == 0);

  // Ten beyond the p99 needs 1000 samples: at 999 the rank is 990 and
  // only nine lie beyond it.
  CHECK(has_ten_beyond(1000, 0.99));
  CHECK(!has_ten_beyond(999, 0.99));
  CHECK(min_samples_for(0.99) == 1000);
  CHECK(min_samples_for(0.50) == 20);

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Summary s = summarize(v);
  CHECK(s.n == 1000);
  CHECK(s.p50 == 500);
  CHECK(s.p75 == 750);
  CHECK(s.p90 == 900);
  CHECK(s.p99 == 990);
  CHECK(s.beyond_p99 == 10);
  CHECK(s.p99_ok);

  v.pop_back();
  CHECK(!summarize(v).p99_ok);
  CHECK(summarize({}).n == 0);
}

void test_zipf_determinism() {
  const ZipfSampler zipf(16384, 1.0);
  const auto draw = [&](std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<std::size_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(zipf.sample(rng));
    return out;
  };
  CHECK(draw(7) == draw(7));
  CHECK(draw(7) != draw(8));
  CHECK(derive_seed(7, 1) == derive_seed(7, 1));
  CHECK(derive_seed(7, 1) != derive_seed(7, 2));
  CHECK(derive_seed(7, 1) != derive_seed(8, 1));

  // Pinned first draws for seed 42, so a change to the sampler or the
  // generator (which would change every workload's inputs) is noticed.
  SplitMix64 rng(42);
  CHECK(rng.next() == 0xbdd732262feb6e95ULL);

  // Shape: P(0)/P(1) = 2 under Zipf(1.0); every rank stays in range.
  std::map<std::size_t, int> freq;
  SplitMix64 big(1);
  int out_of_range = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::size_t k = zipf.sample(big);
    if (k >= 16384) ++out_of_range;
    if (k < 2) ++freq[k];
  }
  CHECK(out_of_range == 0);
  const double ratio = static_cast<double>(freq[0]) / freq[1];
  CHECK(near(ratio, 2.0, 0.15));
}

/// Simulated time for run_generator: sleeping jumps the clock forward,
/// and each event advances it by its service time.
struct FakeClock {
  std::int64_t t = 0;
  std::int64_t now() const { return t; }
  void sleep_until(std::int64_t when) {
    if (when > t) t = when;
  }
};

void test_due_time_latency_under_stall() {
  FakeClock clock;
  const Schedule schedule{0, 10};  // one event every 10 time units
  std::vector<std::int64_t> from_due(10), from_start(10), lag(10);
  run_generator(clock, schedule, 0, 1, 100,
                [&](std::uint64_t k, std::int64_t due, std::int64_t start) {
                  clock.t += (k == 3) ? 45 : 2;  // event 3 stalls
                  from_due[k] = clock.t - due;
                  from_start[k] = clock.t - start;
                  lag[k] = start - due;
                });
  // Before the stall every event is served on time.
  CHECK(from_due[2] == 2 && lag[2] == 0);
  CHECK(from_due[3] == 45);
  // Event 4 was due at 40 but the generator was busy until 75: it waits
  // 35 behind the stall. Timed from its start it would look like 2.
  CHECK(lag[4] == 35);
  CHECK(from_due[4] == 37);
  CHECK(from_start[4] == 2);
  // The backlog drains by 2 per event: 5 starts at 77 (lag 27), ...
  CHECK(lag[5] == 27 && from_due[5] == 29);
  CHECK(lag[8] == 3 && lag[9] == 0);
  // Only events due before the end (0..9) run, none early.
  for (std::int64_t k = 0; k < 10; ++k) CHECK(lag[static_cast<std::size_t>(k)] >= 0);

  // Two generators sharing one schedule take alternate events.
  FakeClock c2;
  std::vector<std::uint64_t> seen;
  run_generator(c2, schedule, 1, 2, 100,
                [&](std::uint64_t k, std::int64_t, std::int64_t) { seen.push_back(k); });
  CHECK((seen == std::vector<std::uint64_t>{1, 3, 5, 7, 9}));
}

void test_span_self_time_and_residual() {
  SpanLog log;
  const auto root = log.add({SpanName::kOpMailIbe, kNoParent, 1, 0, 100});
  const auto a = log.add({SpanName::kIbeEncrypt, root, 1, 10, 30});
  log.add({SpanName::kSnapshot, a, 1, 12, 20});          // grandchild
  log.add({SpanName::kIbeToken, root, 1, 25, 50});       // overlaps a
  log.add({SpanName::kIbeUnmask, root, 1, 90, 120});     // runs past root
  const auto self = self_times(log.spans());
  // Root: 100 minus the union [10,50] ∪ [90,100] = 100 - 50.
  CHECK(self[0] == 50);
  CHECK(self[1] == 12);  // 20 minus the grandchild's 8
  CHECK(self[2] == 8);
  CHECK(self[3] == 25);
  CHECK(self[4] == 30);  // a span's own self time is not clipped

  // A second op, fully covered by one child.
  const auto root2 = log.add({SpanName::kOpSign, kNoParent, 2, 200, 300});
  log.add({SpanName::kVerify, root2, 2, 200, 300});
  // A third op of the first kind with a 10-unit residual.
  const auto root3 = log.add({SpanName::kOpMailIbe, kNoParent, 3, 400, 500});
  log.add({SpanName::kIbeToken, root3, 3, 410, 500});

  const TraceSummary ts = summarize_trace({&log});
  const auto ibe = static_cast<std::size_t>(SpanName::kOpMailIbe);
  CHECK(near(ts.root_total_us[ibe], 0.2, 1e-12));      // 200 ns
  CHECK(near(ts.residual_total_us[ibe], 0.06, 1e-12));  // 50 + 10 ns
  CHECK(near(ts.coverage(SpanName::kOpMailIbe), 0.7, 1e-9));
  CHECK(near(ts.coverage(SpanName::kOpSign), 1.0, 1e-9));
  CHECK(ts.coverage(SpanName::kOpMailMrsa) == 0);  // never ran
  CHECK(near(ts.min_coverage(), 0.7, 1e-9));
  CHECK(ts.duration_us[static_cast<std::size_t>(SpanName::kIbeToken)].size() == 2);

  // Untraced spans record nothing.
  {
    Span s(nullptr, SpanName::kOpSign, kNoParent, 9);
    CHECK(s.index() == kNoParent);
  }
}

void test_quiet_window() {
  constexpr std::int64_t kSec = 1'000'000'000;
  const std::int64_t start = 5 * kSec;
  const auto at = [&](std::int64_t second, std::int64_t i) {
    return start + second * kSec + i * 1000;
  };
  // Client 0: 3 ops of 1 ms in second 0, 5 of 2 ms in second 1, 5 of
  // 1 ms in second 2. Client 1: 5 ops of 3 ms in second 0, 2 in second
  // 1, and ops before and after the window, which are ignored though
  // the six after it would outrank every second inside.
  Series c0, c1;
  for (int i = 0; i < 3; ++i) c0.add(at(0, i), 1);
  for (int i = 0; i < 5; ++i) c0.add(at(1, i), 2);
  for (int i = 0; i < 5; ++i) c0.add(at(2, i), 1);
  for (int i = 0; i < 5; ++i) c1.add(at(0, i), 3);
  for (int i = 0; i < 2; ++i) c1.add(at(1, i), 1);
  c1.add(start - 1, 0.5);
  for (int i = 0; i < 6; ++i) c1.add(at(3, i), 0.5);
  const std::vector<const Series*> ops = {&c0, &c1};

  // Six client-seconds; a third of them is two. Most ops first, then
  // least op time: (0, 2) with 5 ops in 5 ms, then (0, 1) with 5 in 10
  // ms, ahead of (1, 0) with 5 in 15 ms.
  const QuietWindow w(ops, start, 3, 1.0 / 3);
  CHECK(w.kept() == 2);
  CHECK(w.ops() == 10);
  CHECK(w.op_ms() == 15);
  std::vector<double> got = w.samples(ops);
  std::sort(got.begin(), got.end());
  CHECK((got == std::vector<double>{1, 1, 1, 1, 1, 2, 2, 2, 2, 2}));

  // Another series placed by its op's start: only the kept seconds count.
  Series k0, k1;
  k0.add(at(0, 0), 7);
  k0.add(at(2, 1), 8);
  k1.add(at(0, 0), 9);
  CHECK((w.samples({&k0, &k1}) == std::vector<double>{8}));

  // At least one client-second is always kept.
  const QuietWindow one(ops, start, 3, 0);
  CHECK(one.kept() == 1 && one.ops() == 5);
  CHECK(QuietWindow(ops, start, 3, 1).kept() == 6);
}

void test_cycle_clock() {
  // The chain runs exactly the steps asked for, carried across calls.
  CycleClock clock;
  std::uint64_t x = clock.state();
  for (int i = 0; i < 1000; ++i) x = CycleClock::step(x);
  CHECK(clock.ns_per_cycle(600) > 0);
  CHECK(clock.ns_per_cycle(400) > 0);
  CHECK(clock.state() == x);
  CHECK(CycleClock::step(0) == 0x9e3779b97f4a7c15ULL);
  CHECK(CycleClock::step(1ULL << 7) == ((0x9e3779b97f4a7c15ULL + (1ULL << 7)) ^ 1ULL));
}

void test_revocation_oracle() {
  // Revoked over [100, 110] (call, return); unrevoked over [500, 510].
  const std::vector<RevocationRec> log = {{100, 110, 500, 510}};
  CHECK(expected_outcome(log, 120, 200) == Verdict::kMustDeny);
  CHECK(expected_outcome(log, 120, 505) == Verdict::kEither);  // raced unrevoke
  CHECK(expected_outcome(log, 105, 200) == Verdict::kEither);  // raced revoke
  CHECK(expected_outcome(log, 10, 90) == Verdict::kMustGrant);
  CHECK(expected_outcome(log, 520, 600) == Verdict::kMustGrant);
  CHECK(expected_outcome({}, 0, 10) == Verdict::kMustGrant);
  // Still revoked at the end of the run.
  CHECK(expected_outcome({{100, 110, kNever, kNever}}, 900, 950) == Verdict::kMustDeny);
  CHECK(violates(Verdict::kMustDeny, true));
  CHECK(violates(Verdict::kMustGrant, false));
  CHECK(!violates(Verdict::kEither, true) && !violates(Verdict::kEither, false));
  CHECK(!violates(Verdict::kMustDeny, false));
}

}  // namespace

int main() {
  test_percentiles();
  test_zipf_determinism();
  test_due_time_latency_under_stall();
  test_span_self_time_and_residual();
  test_quiet_window();
  test_cycle_clock();
  test_revocation_oracle();
  std::printf("medbench_test: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
