// Benchmark-side tracing: spans the benchmark wraps around each public
// medcrypt call an operation makes (the library is not instrumented for
// this; see README.md, "Tracing").
//
// Each client thread owns one SpanLog and appends to it without locks.
// A span records its name, start, end, the index of its parent span in
// the same log, and the request id shared by every span of one op. The
// logs stay in memory until the run ends, then are written out and
// reduced to per-layer numbers: a span's self time is its duration minus
// the part of its interval covered by its children, and the self time
// of an op's root span is the op's named residual — the time no named
// call accounts for.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "harness.h"

namespace medbench {

/// Every span the benchmark records. The first four are op roots.
enum class SpanName : std::uint8_t {
  kOpMailIbe,        // BF-IBE mail: encrypt + mediated decrypt
  kOpMailMrsa,       // IB-mRSA mail: OAEP encrypt + mediated decrypt
  kOpSign,           // mediated GDH sign
  kOpBatchDecrypt,   // an issue_tokens batch of 8, each message finished
  kIbeEncrypt,       // ibe::full_encrypt
  kRsaEncrypt,       // mediated::ib_mrsa_encrypt
  kSnapshot,         // RevocationList::snapshot() before a SEM call
  kIbeToken,         // IbeMediator::issue_token
  kIbeBatchToken,    // IbeMediator::issue_tokens
  kGdhToken,         // GdhMediator::issue_token
  kMrsaToken,        // MRsaMediator::issue_token
  kUserPartial,      // MediatedIbeUser::partial
  kIbeUnmask,        // ibe::full_decrypt_with_mask
  kRsaUserHalf,      // BigInt::pow_mod with IbMRsaUser::user_key()
  kRsaOaepDecode,    // rsa::oaep_decode
  kHashMessage,      // gdh::hash_message
  kUserScalarMul,    // Point::mul by the user's GDH share
  kVerify,           // gdh::verify (the §5 user-side check)
  kCount
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

const char* span_name(SpanName name);

inline bool is_root(SpanName name) {
  return name <= SpanName::kOpBatchDecrypt;
}

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

struct SpanRec {
  SpanName name = SpanName::kCount;
  std::uint32_t parent = kNoParent;  // index in the same log
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans, in the order they began.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  std::uint32_t begin(SpanName name, std::uint32_t parent,
                      std::uint64_t request) {
    spans_.push_back(SpanRec{name, parent, request, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t index) { spans_[index].end_ns = now_ns(); }

  /// Records a finished span directly (tests build logs this way).
  std::uint32_t add(const SpanRec& rec) {
    spans_.push_back(rec);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
};

/// RAII span; with a null log it records nothing, so one code path
/// serves traced and untraced ops where the user API has no single call.
class Span {
 public:
  Span(SpanLog* log, SpanName name, std::uint32_t parent,
       std::uint64_t request)
      : log_(log),
        index_(log != nullptr ? log->begin(name, parent, request) : kNoParent) {}
  ~Span() {
    if (log_ != nullptr) log_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

/// Self time of every span of `spans`: duration minus the length of the
/// union of its children's intervals, each clipped to the parent's.
std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans);

/// Per-name reduction of a set of logs.
struct TraceSummary {
  /// Durations and self times in µs, per span name.
  std::vector<std::vector<double>> duration_us{kSpanNames};
  std::vector<std::vector<double>> self_us{kSpanNames};
  /// Per root name: total root time and total residual (root self time).
  std::vector<double> root_total_us = std::vector<double>(kSpanNames, 0.0);
  std::vector<double> residual_total_us = std::vector<double>(kSpanNames, 0.0);

  /// Share of root time covered by named child spans for one op kind
  /// (1 − residual ÷ root time); 0 when the op never ran.
  double coverage(SpanName root) const;
  /// The lowest coverage over the op kinds that ran (1 if none ran).
  double min_coverage() const;
};

TraceSummary summarize_trace(const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line (thread, index, name,
/// parent, request, start, end, self time). Returns false on I/O error.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace medbench
