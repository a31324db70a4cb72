#include "harness.h"

namespace medbench {

std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // ceil(q·n) in integer arithmetic on q expressed in parts per million.
  const auto ppm = static_cast<std::uint64_t>(std::llround(q * 1e6));
  const std::uint64_t rank = (ppm * n + 999999) / 1000000;
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n));
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!has_ten_beyond(n, q)) ++n;
  return n;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[percentile_rank(sorted.size(), q) - 1];
}

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = percentile_sorted(samples, 0.50);
  s.p75 = percentile_sorted(samples, 0.75);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  s.beyond_p99 = samples_beyond(s.n, 0.99);
  s.p99_ok = has_ten_beyond(s.n, 0.99);
  return s;
}

QuietWindow::QuietWindow(const std::vector<const Series*>& ops,
                         std::int64_t start_ns, int seconds, double share)
    : start_ns_(start_ns) {
  const auto secs = static_cast<std::size_t>(std::max(seconds, 1));
  struct Block {
    std::size_t client, second, count;
    double total_ms;
  };
  std::vector<Block> blocks;
  for (std::size_t t = 0; t < ops.size(); ++t) {
    keep_.emplace_back(secs, false);
    std::vector<Block> mine(secs, Block{t, 0, 0, 0});
    for (std::size_t s = 0; s < secs; ++s) mine[s].second = s;
    for (std::size_t i = 0; i < ops[t]->at_ns.size(); ++i) {
      const std::int64_t rel = ops[t]->at_ns[i] - start_ns;
      if (rel < 0) continue;
      const auto s = static_cast<std::size_t>(rel / 1'000'000'000);
      if (s >= secs) continue;
      ++mine[s].count;
      mine[s].total_ms += ops[t]->values[i];
    }
    blocks.insert(blocks.end(), mine.begin(), mine.end());
  }
  std::stable_sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.count != b.count ? a.count > b.count : a.total_ms < b.total_ms;
  });
  const auto want = static_cast<std::size_t>(share * static_cast<double>(blocks.size()));
  kept_ = std::min(blocks.size(), std::max<std::size_t>(want, 1));
  for (std::size_t i = 0; i < kept_; ++i) {
    keep_[blocks[i].client][blocks[i].second] = true;
    ops_ += blocks[i].count;
    op_ms_ += blocks[i].total_ms;
  }
}

bool QuietWindow::keeps(std::size_t client, std::int64_t at_ns) const {
  if (client >= keep_.size()) return false;
  const std::int64_t rel = at_ns - start_ns_;
  if (rel < 0) return false;
  const auto s = static_cast<std::size_t>(rel / 1'000'000'000);
  return s < keep_[client].size() && keep_[client][s];
}

std::vector<double> QuietWindow::samples(
    const std::vector<const Series*>& per_client) const {
  std::vector<double> out;
  for (std::size_t t = 0; t < per_client.size(); ++t) {
    for (std::size_t i = 0; i < per_client[t]->values.size(); ++i) {
      if (keeps(t, per_client[t]->at_ns[i])) out.push_back(per_client[t]->values[i]);
    }
  }
  return out;
}

double CycleClock::ns_per_cycle(int steps) {
  const std::int64_t start = now_ns();
  std::uint64_t x = state_;
  for (int i = 0; i < steps; ++i) x = step(x);
  state_ = x;
  return static_cast<double>(now_ns() - start) / (2.0 * std::max(steps, 1));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  return mix.next();
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t ZipfSampler::sample(SplitMix64& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

}  // namespace medbench
