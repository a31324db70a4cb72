// The revocation-visibility oracle of the revocation_churn workload.
//
// The admin thread logs four timestamps per revocation of an enrolled
// identity: when revoke() was called and returned, and when unrevoke()
// was called and returned. Each client request logs when it started
// (just before its SEM call) and when it ended. After the run, every
// request is judged against the log of its identity:
//
//   must deny   some revocation returned before the request started, and
//               its unrevoke() was not yet called when the request ended;
//   must grant  no revocation of the identity overlapped the request
//               (every one was called after the request ended, or was
//               undone before it started);
//   either      the request raced a revoke()/unrevoke() call.
//
// A token issued where the verdict is "must deny", or a denial where it
// is "must grant", is a visibility violation and counts as a failure.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace medbench {

inline constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct RevocationRec {
  std::int64_t revoke_call = 0;
  std::int64_t revoke_ret = 0;
  std::int64_t unrevoke_call = kNever;  // kNever: still revoked at the end
  std::int64_t unrevoke_ret = kNever;
};

enum class Verdict { kMustDeny, kMustGrant, kEither };

inline Verdict expected_outcome(const std::vector<RevocationRec>& log,
                                std::int64_t start_ns, std::int64_t end_ns) {
  bool overlap = false;
  for (const RevocationRec& r : log) {
    if (r.revoke_ret < start_ns && r.unrevoke_call > end_ns) {
      return Verdict::kMustDeny;
    }
    if (!(r.revoke_call > end_ns || r.unrevoke_ret < start_ns)) overlap = true;
  }
  return overlap ? Verdict::kEither : Verdict::kMustGrant;
}

/// True when `granted` contradicts the verdict.
inline bool violates(Verdict v, bool granted) {
  return (v == Verdict::kMustDeny && granted) ||
         (v == Verdict::kMustGrant && !granted);
}

}  // namespace medbench
