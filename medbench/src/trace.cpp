#include "trace.h"

#include <algorithm>
#include <array>
#include <utility>

namespace medbench {

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames = {
      "op.mail_ibe",          "op.mail_mrsa",       "op.sign",
      "op.batch_decrypt",         "ibe.encrypt",        "rsa.encrypt",
      "mediated.snapshot",    "mediated.ibe_token", "mediated.ibe_batch_token",
      "mediated.gdh_token",   "mediated.mrsa_token", "pairing.user_partial",
      "ibe.unmask",           "rsa.user_half",      "rsa.oaep_decode",
      "ec.hash_message",      "ec.user_scalar_mul", "pairing.verify",
  };
  const auto i = static_cast<std::size_t>(name);
  return i < kSpanNames ? kNames[i] : "unknown";
}

std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans) {
  // Children of each parent, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent == kNoParent || s.parent >= spans.size()) continue;
    const SpanRec& p = spans[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[s.parent].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

double TraceSummary::coverage(SpanName root) const {
  const auto i = static_cast<std::size_t>(root);
  if (root_total_us[i] <= 0) return 0;
  return 1.0 - residual_total_us[i] / root_total_us[i];
}

double TraceSummary::min_coverage() const {
  double lowest = 1.0;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const auto name = static_cast<SpanName>(i);
    if (is_root(name) && root_total_us[i] > 0) {
      lowest = std::min(lowest, coverage(name));
    }
  }
  return lowest;
}

TraceSummary summarize_trace(const std::vector<const SpanLog*>& logs) {
  TraceSummary out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const auto i = static_cast<std::size_t>(spans[j].name);
      if (i >= kSpanNames) continue;
      const double dur = static_cast<double>(spans[j].end_ns - spans[j].start_ns) / 1e3;
      const double s = static_cast<double>(self[j]) / 1e3;
      out.duration_us[i].push_back(dur);
      out.self_us[i].push_back(s);
      if (is_root(spans[j].name)) {
        out.root_total_us[i] += dur;
        out.residual_total_us[i] += s;
      }
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const SpanRec& s = spans[j];
      std::fprintf(f,
                   "{\"thread\":%zu,\"index\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   t, j, span_name(s.name),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[j]));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace medbench
