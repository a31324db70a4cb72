// The three medbench workloads and the reduction of their samples to
// the printed metrics. README.md states why each workload exists and
// which layer metric should move which end-to-end metric on it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "ec/hash_to_point.h"
#include "hash/drbg.h"
#include "ibe/boneh_franklin.h"
#include "rsa/oaep.h"

namespace medbench {

using namespace medcrypt;
using field::Fp2;

namespace {

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Runs body(t) on `n` threads and joins them all. Bodies catch their
/// own exceptions (a throw escaping a thread would end the process).
template <typename Body>
void run_threads(int n, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

/// Request id shared by the spans of one op: thread in the top bits.
std::uint64_t request_id(int thread, std::uint64_t k) {
  return (static_cast<std::uint64_t>(thread) << 48) | k;
}

/// Times RevocationList::snapshot() — the wait a SEM call would see on
/// the revocation lock — as a child span of the op.
void snapshot_span(const Deployment& d, SpanLog* log, std::uint32_t parent,
                   std::uint64_t req) {
  Span s(log, SpanName::kSnapshot, parent, req);
  const auto snap = d.revocations->snapshot();
  (void)snap;
}

/// Traced ops alternate with untraced ones in blocks of four, so each
/// block holds the mail mix (3 BF-IBE : 1 IB-mRSA) and the overhead
/// compares like with like.
bool traced_op(bool trace, std::uint64_t k) { return trace && ((k >> 2) & 1) == 0; }

// ---------------------------------------------------------------------------
// Single ops. Each returns normally on success and throws on failure;
// the traced form calls exactly the public functions the user API calls.
// ---------------------------------------------------------------------------

void ibe_mail(const Deployment& d, std::size_t r, const Bytes& msg,
              RandomSource& rng, SpanLog* log, std::uint64_t req,
              ClientOut& out) {
  const ibe::SystemParams& params = d.pkg->params();
  const std::string& id = d.ids[r];
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = 0;
  Bytes plain;
  {
    Span op(log, SpanName::kOpMailIbe, kNoParent, req);
    ibe::FullCiphertext ct;
    {
      Span s(log, SpanName::kIbeEncrypt, op.index(), req);
      ct = ibe::full_encrypt(params, id, msg, rng);
    }
    t1 = now_ns();
    if (log == nullptr) {
      plain = d.ibe_users[r].decrypt(ct, *d.ibe_sem);
    } else {
      snapshot_span(d, log, op.index(), req);
      Fp2 g_sem;
      {
        Span s(log, SpanName::kIbeToken, op.index(), req);
        g_sem = d.ibe_sem->issue_token(id, ct.u);
      }
      Fp2 g_user;
      {
        Span s(log, SpanName::kUserPartial, op.index(), req);
        g_user = d.ibe_users[r].partial(ct.u);
      }
      const Fp2 g = g_sem * g_user;
      Span s(log, SpanName::kIbeUnmask, op.index(), req);
      plain = ibe::full_decrypt_with_mask(params, g, ct);
    }
  }
  const std::int64_t t2 = now_ns();
  if (plain != msg) throw Error("BF-IBE mail: wrong plaintext");
  out.encrypt.add(t0, ns_to_ms(t1 - t0));
  out.decrypt.add(t0, ns_to_ms(t2 - t1));
  out.op.add(t0, ns_to_ms(t2 - t0));
  (log != nullptr ? out.traced_ms : out.untraced_ms).push_back(ns_to_ms(t2 - t0));
}

void mrsa_mail(const Deployment& d, std::size_t r, const Bytes& msg,
               RandomSource& rng, SpanLog* log, std::uint64_t req,
               ClientOut& out) {
  const mediated::IbMRsaParams& params = d.mrsa->params();
  const std::string& id = d.ids[r];
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = 0;
  Bytes plain;
  {
    Span op(log, SpanName::kOpMailMrsa, kNoParent, req);
    Bytes ct;
    {
      Span s(log, SpanName::kRsaEncrypt, op.index(), req);
      ct = mediated::ib_mrsa_encrypt(params, id, msg, rng);
    }
    t1 = now_ns();
    if (log == nullptr) {
      plain = d.mrsa_users[r].decrypt(ct, *d.mrsa_sem);
    } else {
      const BigInt c = BigInt::from_bytes_be(ct);
      snapshot_span(d, log, op.index(), req);
      BigInt m_sem;
      {
        Span s(log, SpanName::kMrsaToken, op.index(), req);
        m_sem = d.mrsa_sem->issue_token(id, c);
      }
      BigInt m_user;
      {
        Span s(log, SpanName::kRsaUserHalf, op.index(), req);
        m_user = c.pow_mod(d.mrsa_users[r].user_key(), params.modulus);
      }
      const BigInt m = m_sem.mul_mod(m_user, params.modulus);
      Span s(log, SpanName::kRsaOaepDecode, op.index(), req);
      plain = rsa::oaep_decode(m, params.byte_size());
    }
  }
  const std::int64_t t2 = now_ns();
  if (plain != msg) throw Error("IB-mRSA mail: wrong plaintext");
  out.mrsa_decrypt.add(t0, ns_to_ms(t2 - t1));
  out.op.add(t0, ns_to_ms(t2 - t0));
  (log != nullptr ? out.traced_ms : out.untraced_ms).push_back(ns_to_ms(t2 - t0));
}

/// Mediated GDH sign by `signer` on message index `m`. Throws
/// RevokedError when the SEM refuses.
Point gdh_sign(const Deployment& d, std::size_t signer, std::size_t m,
               SpanLog* log, std::uint64_t req) {
  const Bytes& msg = d.messages[m];
  if (log == nullptr) return d.gdh_users[signer].sign(msg, *d.gdh_sem);

  const pairing::ParamSet& group = *d.group;
  Span op(log, SpanName::kOpSign, kNoParent, req);
  Point h;
  {
    Span s(log, SpanName::kHashMessage, op.index(), req);
    h = gdh::hash_message(group, msg);
  }
  snapshot_span(d, log, op.index(), req);
  Point s_sem;
  {
    Span s(log, SpanName::kGdhToken, op.index(), req);
    s_sem = d.gdh_sem->issue_token(d.ids[signer], msg);
  }
  Point s_user;
  {
    Span s(log, SpanName::kUserScalarMul, op.index(), req);
    s_user = h.mul(d.gdh_shares[signer]);
  }
  const Point signature = s_sem + s_user;
  bool ok = false;
  {
    Span s(log, SpanName::kVerify, op.index(), req);
    ok = gdh::verify(group, d.gdh_users[signer].public_key(), msg, signature);
  }
  if (!ok) throw Error("mediated GDH sign: assembled signature invalid");
  return signature;
}

/// Checks every recorded signature with an independent gdh::verify on
/// up to four threads; returns the number that fail.
std::uint64_t verify_signatures(const Deployment& d,
                                const std::vector<SignedRec>& sigs) {
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::size_t> next{0};
  run_threads(4, [&](int) {
    for (std::size_t i = next.fetch_add(1); i < sigs.size(); i = next.fetch_add(1)) {
      const SignedRec& r = sigs[i];
      bool ok = false;
      try {
        ok = gdh::verify(*d.group, d.gdh_users[r.signer].public_key(),
                         d.messages[r.message], r.signature);
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) bad.fetch_add(1);
    }
  });
  return bad.load();
}

// ---------------------------------------------------------------------------
// Workload loops
// ---------------------------------------------------------------------------

struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Closed loop: each client sends its next op as soon as the previous one
/// returns. `op(t, k, log, out)` runs op k of client t. After each op
/// the client reads the CycleClock, outside the op. The gap between one
/// op's end and the next one's start, less that reading, is the
/// closed-loop lag.
template <typename Op>
void closed_loop(const Window& w, bool trace, std::vector<ClientOut>& outs,
                 Op op) {
  run_threads(kClientThreads, [&](int t) {
    ClientOut& out = outs[static_cast<std::size_t>(t)];
    CycleClock cycles;
    RealClock{}.sleep_until(w.start_ns);
    std::int64_t prev_end = -1;
    for (std::uint64_t k = 0;; ++k) {
      const std::int64_t start = now_ns();
      if (start >= w.end_ns) break;
      if (prev_end >= 0) out.lag_ms.push_back(ns_to_ms(start - prev_end));
      ++out.attempted;
      try {
        op(t, k, traced_op(trace, k) ? &out.log : nullptr, out);
      } catch (const std::exception& e) {
        out.fail(e.what());
      }
      out.last_done_ns = now_ns();
      out.clock.add(start, cycles.ns_per_cycle(kClockSteps));
      prev_end = now_ns();
    }
  });
}

// mail_uniform — pairing- and RSA-bound mail with uniform recipients.
// 3 of 4 ops are BF-IBE mail (full_encrypt, then MediatedIbeUser::decrypt
// through the IbeMediator), the 4th is IB-mRSA mail (OAEP encrypt, then
// IbMRsaUser::decrypt through the MRsaMediator). Nothing is revoked and
// no SEM cache is on the path; the 1024 H1 points fit the 4096-entry
// identity cache. A pairing, field or RSA change shows here; a SEM cache
// change should not.
void mail_uniform(const Deployment& d, const Options& o, const Window& w,
                  std::vector<ClientOut>& outs) {
  std::vector<hash::HmacDrbg> rngs;
  std::vector<SplitMix64> picks;
  for (int t = 0; t < kClientThreads; ++t) {
    rngs.emplace_back(derive_seed(o.seed, 100 + static_cast<std::uint64_t>(t)));
    picks.emplace_back(derive_seed(o.seed, 200 + static_cast<std::uint64_t>(t)));
  }
  closed_loop(w, o.trace, outs,
              [&](int t, std::uint64_t k, SpanLog* log, ClientOut& out) {
                auto& rng = rngs[static_cast<std::size_t>(t)];
                const std::size_t r = picks[static_cast<std::size_t>(t)].below(kUsers);
                Bytes msg(kMessageLen);
                rng.fill(msg);
                if (k % 4 == 3) {
                  mrsa_mail(d, r, msg, rng, log, request_id(t, k), out);
                } else {
                  ibe_mail(d, r, msg, rng, log, request_id(t, k), out);
                }
              });
}

// sign_zipf — mediated GDH signing by a uniform signer on a message drawn
// Zipf(1.0) from 16384 distinct messages: 4x the SEM's 4096-entry h(M)
// cache, so both its hit and its miss path carry weight, while the
// user-side gdh::hash_message is always uncached. Bound by hash-to-point,
// scalar multiplication and the two-pairing GDH verify.
void sign_zipf(const Deployment& d, const Options& o, const Window& w,
               std::vector<ClientOut>& outs) {
  const ZipfSampler zipf(kZipfMessages, kZipfExponent);
  std::vector<SplitMix64> picks;
  for (int t = 0; t < kClientThreads; ++t) {
    picks.emplace_back(derive_seed(o.seed, 300 + static_cast<std::uint64_t>(t)));
  }
  closed_loop(w, o.trace, outs,
              [&](int t, std::uint64_t k, SpanLog* log, ClientOut& out) {
                SplitMix64& pick = picks[static_cast<std::size_t>(t)];
                const std::size_t signer = pick.below(kUsers);
                const std::size_t m = zipf.sample(pick);
                const std::int64_t t0 = now_ns();
                Point sig = gdh_sign(d, signer, m, log, request_id(t, k));
                const double ms = ns_to_ms(now_ns() - t0);
                out.sign.add(t0, ms);
                out.op.add(t0, ms);
                (log != nullptr ? out.traced_ms : out.untraced_ms).push_back(ms);
                out.signatures.push_back(SignedRec{static_cast<std::uint32_t>(signer),
                                                   static_cast<std::uint32_t>(m),
                                                   std::move(sig)});
              });
}

// revocation_churn — revocation writes beside SEM reads, open loop.
inline constexpr std::int64_t kChurnEventPeriodNs = 10'000'000;  // 100 events/s
inline constexpr std::uint64_t kChurnBatchEvery = 5;  // 20 batches/s, 80 signs/s
inline constexpr std::size_t kBatchWidth = 8;
inline constexpr std::int64_t kRevokeEveryNs = 50'000'000;
inline constexpr std::int64_t kRevokeHoldNs = 1'000'000'000;

/// One issue_tokens batch of revocation_churn: 8 distinct users' pool
/// ciphertexts, each finished with partial() and full_decrypt_with_mask.
void churn_batch(const Deployment& d, std::int64_t due, SplitMix64& pick,
                 SpanLog* log, std::uint64_t req, ClientOut& out) {
  std::vector<std::size_t> users;
  while (users.size() < kBatchWidth) {
    const std::size_t u = pick.below(kUsers);
    if (std::find(users.begin(), users.end(), u) == users.end()) users.push_back(u);
  }
  std::vector<mediated::IbeMediator::TokenRequest> batch;
  for (const std::size_t u : users) batch.push_back({d.ids[u], &d.pool[u].u});

  const std::int64_t start = now_ns();
  Span op(log, SpanName::kOpBatchDecrypt, kNoParent, req);
  if (log != nullptr) snapshot_span(d, log, op.index(), req);
  std::vector<std::optional<Fp2>> tokens;
  {
    Span s(log, SpanName::kIbeBatchToken, op.index(), req);
    tokens = d.ibe_sem->issue_tokens(batch);
  }
  const std::int64_t issued = now_ns();
  for (std::size_t i = 0; i < users.size(); ++i) {
    const std::size_t u = users[i];
    out.requests.push_back(RequestRec{static_cast<std::uint32_t>(u), start, issued,
                                      tokens[i].has_value()});
    ++out.attempted;
    if (!tokens[i]) {
      ++out.denied;  // judged by the oracle after the run
      continue;
    }
    try {
      Fp2 g_user;
      {
        Span s(log, SpanName::kUserPartial, op.index(), req);
        g_user = d.ibe_users[u].partial(d.pool[u].u);
      }
      const Fp2 g = *tokens[i] * g_user;
      Bytes plain;
      {
        Span s(log, SpanName::kIbeUnmask, op.index(), req);
        plain = ibe::full_decrypt_with_mask(d.pkg->params(), g, d.pool[u]);
      }
      if (plain != d.pool_plain[u]) throw Error("batch decrypt: wrong plaintext");
      out.decrypt.add(due, ns_to_ms(now_ns() - due));
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }
  // The gateway's request is done when its last message is.
  out.op.add(due, ns_to_ms(now_ns() - due));
}

/// One mediated sign of revocation_churn (same Zipf stream as sign_zipf).
void churn_sign(const Deployment& d, std::int64_t due, const ZipfSampler& zipf,
                SplitMix64& pick, SpanLog* log, std::uint64_t req,
                ClientOut& out) {
  const std::size_t signer = pick.below(kUsers);
  const std::size_t m = zipf.sample(pick);
  ++out.attempted;
  const std::int64_t start = now_ns();
  try {
    Point sig = gdh_sign(d, signer, m, log, req);
    const std::int64_t done = now_ns();
    out.requests.push_back(RequestRec{static_cast<std::uint32_t>(signer), start, done, true});
    out.sign.add(due, ns_to_ms(done - due));
    out.op.add(due, ns_to_ms(done - due));
    out.signatures.push_back(SignedRec{static_cast<std::uint32_t>(signer),
                                       static_cast<std::uint32_t>(m), std::move(sig)});
  } catch (const RevokedError&) {
    out.requests.push_back(RequestRec{static_cast<std::uint32_t>(signer), start, now_ns(), false});
    ++out.denied;
    ++out.denied_ops;
  } catch (const std::exception& e) {
    out.fail(e.what());
  }
}

struct AdminOut {
  std::vector<double> publish_ms;  // every revoke()/unrevoke() call
  std::map<std::uint32_t, std::vector<RevocationRec>> log;
  std::vector<std::string> errors;
};

/// The admin thread: revokes one enrolled identity every 50 ms and
/// unrevokes it 1 s later, logging each call for the oracle. Identities
/// still revoked when the window closes stay logged as never unrevoked.
void churn_admin(const Deployment& d, const Options& o, const Window& w,
                 AdminOut& out) {
  SplitMix64 pick(derive_seed(o.seed, 500));
  std::vector<bool> revoked(kUsers, false);
  struct Held {
    std::uint32_t user;
    std::int64_t due;
    std::size_t rec;
  };
  std::vector<Held> held;  // in revoke order, so unrevoke dues ascend
  std::size_t next_unrevoke = 0;
  RealClock clock;
  for (std::int64_t j = 0;; ) {
    const std::int64_t revoke_due = w.start_ns + j * kRevokeEveryNs;
    const bool unrevoke_first = next_unrevoke < held.size() &&
                                held[next_unrevoke].due <= revoke_due;
    const std::int64_t due = unrevoke_first ? held[next_unrevoke].due : revoke_due;
    if (due >= w.end_ns) break;
    clock.sleep_until(due);
    if (unrevoke_first) {
      const Held& h = held[next_unrevoke++];
      RevocationRec& rec = out.log[h.user][h.rec];
      rec.unrevoke_call = now_ns();
      d.revocations->unrevoke(d.ids[h.user]);
      rec.unrevoke_ret = now_ns();
      revoked[h.user] = false;
      out.publish_ms.push_back(ns_to_ms(rec.unrevoke_ret - rec.unrevoke_call));
      continue;
    }
    std::uint32_t u = 0;
    do {
      u = static_cast<std::uint32_t>(pick.below(kUsers));
    } while (revoked[u]);
    RevocationRec rec;
    rec.revoke_call = now_ns();
    d.revocations->revoke(d.ids[u]);
    rec.revoke_ret = now_ns();
    revoked[u] = true;
    out.publish_ms.push_back(ns_to_ms(rec.revoke_ret - rec.revoke_call));
    auto& recs = out.log[u];
    recs.push_back(rec);
    held.push_back(Held{u, revoke_due + kRevokeHoldNs, recs.size() - 1});
    ++j;
  }
}

// revocation_churn — open loop: 2 generators share one evenly spaced
// schedule of 100 events/s (every 5th an issue_tokens batch of 8, so
// 20 batches/s and 80 signs/s) while the admin thread publishes 40
// revocation changes/s over a 16384-identity revoked set. Every publish
// copies the whole set under the exclusive lock and flushes the SEM h(M)
// cache, so writes run beside reads on one SEM. Latency is timed from
// each request's due time; batch tokens here contrast with the single
// tokens of mail_uniform.
void revocation_churn(const Deployment& d, const Options& o, const Window& w,
                      std::vector<ClientOut>& outs, AdminOut& admin) {
  const ZipfSampler zipf(kZipfMessages, kZipfExponent);
  const Schedule schedule{w.start_ns, kChurnEventPeriodNs};
  std::thread admin_thread([&] {
    try {
      churn_admin(d, o, w, admin);
    } catch (const std::exception& e) {
      admin.errors.push_back(e.what());
    }
  });
  run_threads(kClientThreads, [&](int t) {
    ClientOut& out = outs[static_cast<std::size_t>(t)];
    RealClock clock;
    CycleClock cycles;
    try {
      run_generator(clock, schedule, static_cast<std::uint64_t>(t), kClientThreads,
                    w.end_ns, [&](std::uint64_t k, std::int64_t due, std::int64_t start) {
        out.lag_ms.push_back(ns_to_ms(start - due));
        SplitMix64 pick(derive_seed(o.seed, 1'000'000 + k));
        SpanLog* log = (o.trace && k % 2 == 0) ? &out.log : nullptr;
        const std::int64_t t0 = now_ns();
        if (k % kChurnBatchEvery == 0) {
          churn_batch(d, due, pick, log, request_id(t, k), out);
        } else {
          churn_sign(d, due, zipf, pick, log, request_id(t, k), out);
        }
        out.last_done_ns = now_ns();
        // Service time, not due-time latency, for the tracing overhead.
        (log != nullptr ? out.traced_ms : out.untraced_ms)
            .push_back(ns_to_ms(out.last_done_ns - t0));
        out.clock.add(due, cycles.ns_per_cycle(kClockSteps));
      });
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  });
  admin_thread.join();
}

/// Fills the SEM h(M) cache with the head of the Zipf message ranking,
/// least popular first so the most popular end most recently used: the
/// steady state a long-running SEM serves from.
void warm_message_cache(const Deployment& d, std::size_t head) {
  std::atomic<std::size_t> next{0};
  run_threads(4, [&](int) {
    for (std::size_t i = next.fetch_add(1); i < head; i = next.fetch_add(1)) {
      try {
        (void)d.gdh_sem->issue_token(d.ids[i % kUsers], d.messages[head - 1 - i]);
      } catch (const std::exception&) {
        // Nothing is revoked yet; a failure here shows again in the run.
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Reduction to metrics
// ---------------------------------------------------------------------------

std::vector<double> gather(const std::vector<ClientOut>& outs,
                           std::vector<double> ClientOut::*field) {
  std::vector<double> all;
  for (const ClientOut& o : outs) {
    all.insert(all.end(), (o.*field).begin(), (o.*field).end());
  }
  return all;
}

std::vector<double> gather(const std::vector<ClientOut>& outs, Series ClientOut::*field) {
  std::vector<double> all;
  for (const ClientOut& o : outs) {
    all.insert(all.end(), (o.*field).values.begin(), (o.*field).values.end());
  }
  return all;
}

std::vector<const Series*> per_client(const std::vector<ClientOut>& outs,
                                      Series ClientOut::*field) {
  std::vector<const Series*> series;
  for (const ClientOut& o : outs) series.push_back(&(o.*field));
  return series;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// Adds `<name>_p99_ms`; a p99 without ten samples beyond it makes the
/// run invalid.
void add_p99(std::vector<Metric>& out, const std::string& name, const Summary& s,
             RunResult& r) {
  out.push_back(Metric{name + "_p99_ms", s.p99, "ms", s.n,
                       s.p99_ok ? std::to_string(s.beyond_p99) + " beyond"
                                : "FEWER THAN TEN BEYOND"});
  if (!s.p99_ok) r.invalid.push_back(name + "_p99_ms has fewer than ten samples beyond it");
}

}  // namespace

void run_workload(const Options& o, RunResult& result) {
  Plan plan;
  // The calls a traced op of the workload makes: each must leave spans.
  // Per-layer metrics of the other calls read the stand-alone probe.
  std::vector<SpanName> makes;
  using S = SpanName;
  if (o.workload == "mail_uniform") {
    plan.ibe = plan.mrsa = true;
    makes = {S::kSnapshot, S::kIbeToken, S::kUserPartial, S::kIbeUnmask,
             S::kMrsaToken, S::kRsaUserHalf, S::kRsaOaepDecode};
  } else if (o.workload == "sign_zipf") {
    plan.gdh = plan.zipf_messages = true;
    makes = {S::kSnapshot, S::kGdhToken, S::kHashMessage, S::kUserScalarMul, S::kVerify};
  } else {  // revocation_churn
    plan.ibe = plan.gdh = plan.zipf_messages = plan.ciphertext_pool = true;
    plan.revoked_fill = 16384;
    makes = {S::kSnapshot, S::kIbeBatchToken, S::kUserPartial, S::kIbeUnmask,
             S::kGdhToken, S::kHashMessage, S::kUserScalarMul, S::kVerify};
  }

  // Set-up, timed kSetupRuns times, each from an empty identity-point
  // cache as the first one is; the run uses the last deployment and
  // reports the last set-up's phases. revocation_churn sets up once: its
  // one-by-one fill of the revoked set alone takes 14–25 s.
  const int setup_runs = plan.revoked_fill > 0 ? 1 : kSetupRuns;
  std::vector<double> setup_times;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < setup_runs; ++i) {
    d.reset();
    ec::identity_point_cache().clear();
    result.phases.clear();
    const std::int64_t setup_start = now_ns();
    d = build_deployment(plan, o.seed, &result.phases);
    if (o.workload == "sign_zipf") {
      const std::int64_t t = now_ns();
      warm_message_cache(*d, 4096);
      result.phases.emplace_back("warm_message_cache", static_cast<double>(now_ns() - t) / 1e9);
    }
    setup_times.push_back(static_cast<double>(now_ns() - setup_start) / 1e9);
  }
  const double setup_s = median_of(setup_times);

  // Traced runs: calibration and stand-alone layer probes, before load.
  std::vector<double> probe_us(kSpanNames, 0.0);
  if (o.trace) {
    run_calibration(*d->group, o.seed, result.per_layer);
    Plan probe_plan;
    probe_plan.ibe = probe_plan.gdh = probe_plan.mrsa = true;
    probe_plan.users = kBatchWidth;
    probe_plan.ciphertext_pool = probe_plan.zipf_messages = true;
    const auto probe = build_deployment(probe_plan, o.seed ^ 0x9e3779b9ULL, nullptr);
    probe_us = run_layer_probes(*probe, o.seed);
  }

  std::vector<ClientOut> outs(kClientThreads);
  AdminOut admin;
  const mediated::SemStats sem0 = d->sem_stats();
  const auto cache0 = ec::identity_point_cache().stats();
  const std::uint64_t epoch0 = d->revocations->epoch();

  Window w;
  w.start_ns = now_ns() + 20'000'000;
  w.end_ns = w.start_ns + static_cast<std::int64_t>(o.seconds) * 1'000'000'000;
  if (o.workload == "mail_uniform") {
    mail_uniform(*d, o, w, outs);
  } else if (o.workload == "sign_zipf") {
    sign_zipf(*d, o, w, outs);
  } else {
    revocation_churn(*d, o, w, outs, admin);
  }

  const mediated::SemStats sem1 = d->sem_stats();
  const auto cache1 = ec::identity_point_cache().stats();
  const std::uint64_t epoch1 = d->revocations->epoch();
  const std::size_t revoked_size = d->revocations->size();

  // --- correctness -------------------------------------------------------
  std::vector<SignedRec> sigs;
  for (ClientOut& out : outs) {
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.errors.insert(result.errors.end(), out.errors.begin(), out.errors.end());
    std::move(out.signatures.begin(), out.signatures.end(), std::back_inserter(sigs));
  }
  const std::int64_t verify_start = now_ns();
  const std::uint64_t bad_sigs = verify_signatures(*d, sigs);
  if (!sigs.empty()) {
    result.phases.emplace_back("after_run_verify",
                               static_cast<double>(now_ns() - verify_start) / 1e9);
  }
  if (bad_sigs > 0) {
    result.failed += bad_sigs;
    result.errors.push_back(std::to_string(bad_sigs) +
                            " signatures failed the independent gdh::verify");
  }
  std::uint64_t denied = 0;
  std::uint64_t must_deny = 0;
  for (const ClientOut& out : outs) {
    denied += out.denied;
    for (const RequestRec& rq : out.requests) {
      const auto it = admin.log.find(rq.user);
      const Verdict v = it == admin.log.end()
                            ? Verdict::kMustGrant
                            : expected_outcome(it->second, rq.start_ns, rq.end_ns);
      if (v == Verdict::kMustDeny) ++must_deny;
      if (violates(v, rq.granted)) ++result.violations;
    }
  }
  if (result.violations > 0) {
    result.failed += result.violations;
    result.errors.push_back(std::to_string(result.violations) +
                            " revocation-visibility violations");
  }
  for (const std::string& e : admin.errors) {
    result.failed += 1;
    result.errors.push_back("admin: " + e);
  }

  // --- end-to-end ----------------------------------------------------------
  const std::vector<double> op_ms = gather(outs, &ClientOut::op);
  // From the first op's start (or due time) to the last completion: an
  // open loop that keeps up reads its offered rate, one with a growing
  // backlog reads less.
  std::int64_t last_done = w.start_ns + 1;
  for (const ClientOut& out : outs) last_done = std::max(last_done, out.last_done_ns);
  const double elapsed_s = static_cast<double>(last_done - w.start_ns) / 1e9;
  std::uint64_t denied_ops = 0;
  for (const ClientOut& out : outs) denied_ops += out.denied_ops;
  const double completed = static_cast<double>(op_ms.size() + denied_ops);
  const Summary ops = summarize(op_ms);
  const QuietWindow quiet(per_client(outs, &ClientOut::op), w.start_ns, o.seconds,
                          kQuietShare);

  auto& det = result.detail;
  det.push_back(Metric{"ops_per_s", completed / elapsed_s, "1/s",
                       static_cast<std::size_t>(completed), "whole run"});
  det.push_back(Metric{"op_p50_ms", ops.p50, "ms", ops.n, ""});
  det.push_back(Metric{"op_p75_ms", ops.p75, "ms", ops.n, ""});
  det.push_back(Metric{"op_p90_ms", ops.p90, "ms", ops.n, ""});
  add_p99(det, "op", ops, result);
  const double attempted = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  det.push_back(Metric{"fail_frac", static_cast<double>(result.failed) / attempted,
                       "ratio", static_cast<std::size_t>(result.attempted), ""});
  // Per-kind latencies, where the workload makes that kind of op, over
  // the whole run and over the quiet window. The p50s make the geometric
  // means below, in which every kind weighs the same however rare or
  // cheap its ops are.
  const std::pair<const char*, Series ClientOut::*> kinds[] = {
      {"encrypt", &ClientOut::encrypt},
      {"decrypt", &ClientOut::decrypt},
      {"mrsa_decrypt", &ClientOut::mrsa_decrypt},
      {"sign", &ClientOut::sign}};
  double log_p50_sum = 0;
  double quiet_log_p50_sum = 0;
  std::size_t kind_count = 0;
  std::size_t kind_samples = 0;
  std::size_t quiet_kind_samples = 0;
  const auto add_kind = [&](const std::string& kind, const std::vector<double>& samples,
                            const std::vector<double>& quiet_samples) {
    const Summary s = summarize(samples);
    const Summary q = summarize(quiet_samples);
    det.push_back(Metric{kind + "_p50_ms", s.p50, "ms", s.n, ""});
    // encrypt_p99_ms is not among the issue's metrics.
    if (kind != "encrypt") add_p99(det, kind, s, result);
    det.push_back(Metric{"quiet_" + kind + "_p50_ms", q.p50, "ms", q.n, "quiet window"});
    if (q.n == 0) result.invalid.push_back("no " + kind + " op in the quiet window");
    log_p50_sum += std::log(s.p50);
    quiet_log_p50_sum += std::log(q.p50);
    ++kind_count;
    kind_samples += s.n;
    quiet_kind_samples += q.n;
  };
  for (const auto& [kind, field] : kinds) {
    const std::vector<double> samples = gather(outs, field);
    if (!samples.empty()) add_kind(kind, samples, quiet.samples(per_client(outs, field)));
  }
  // revoke/unrevoke run on the admin thread, outside the client-seconds:
  // its quiet p50 is its whole-run p50.
  if (!admin.publish_ms.empty()) add_kind("revoke", admin.publish_ms, admin.publish_ms);
  det.push_back(Metric{"kind_p50_geomean_ms",
                       kind_count > 0 ? std::exp(log_p50_sum / kind_count) : 0, "ms",
                       kind_samples, "whole run"});

  const std::string quiet_note = "quiet window: " + std::to_string(quiet.kept()) +
                                 " of " + std::to_string(kClientThreads * o.seconds) +
                                 " client-seconds";
  const double quiet_geomean_ms =
      kind_count > 0 ? std::exp(quiet_log_p50_sum / kind_count) : 0;
  const double quiet_mean_ms =
      quiet.ops() > 0 ? quiet.op_ms() / static_cast<double>(quiet.ops()) : 0;
  // The core clock in the same client-seconds. Dividing by it turns ms
  // into core cycles, which do not move with the host's clock.
  const std::vector<double> quiet_clock = quiet.samples(per_client(outs, &ClientOut::clock));
  const double ns_per_cycle = median_of(quiet_clock);  // 0 when empty
  // ms ÷ (ns per cycle) = 10^6 ns ÷ (ns per cycle) ÷ 10^6: megacycles.
  const auto mcycles = [&](double ms) { return ns_per_cycle > 0 ? ms / ns_per_cycle : 0; };
  const std::vector<double> all_clock = gather(outs, &ClientOut::clock);
  const double whole_ns_per_cycle = median_of(all_clock);
  det.push_back(Metric{"clock_ghz", whole_ns_per_cycle > 0 ? 1 / whole_ns_per_cycle : 0, "GHz",
                       all_clock.size(), "whole run"});
  det.push_back(Metric{"quiet_clock_ghz", ns_per_cycle > 0 ? 1 / ns_per_cycle : 0, "GHz",
                       quiet_clock.size(), quiet_note});
  det.push_back(Metric{"quiet_op_mean_ms", quiet_mean_ms, "ms", quiet.ops(), quiet_note});
  det.push_back(Metric{"quiet_kind_p50_geomean_ms", quiet_geomean_ms, "ms",
                       quiet_kind_samples, quiet_note});

  result.end_to_end.push_back(Metric{"setup_s", setup_s, "s", setup_times.size(),
                                     "median of " + std::to_string(setup_times.size()) +
                                         " set-ups"});
  result.end_to_end.push_back(Metric{"quiet_kind_p50_geomean_mcycles",
                                     mcycles(quiet_geomean_ms), "Mcycle", quiet_kind_samples,
                                     quiet_note});
  result.end_to_end.push_back(Metric{"quiet_op_mean_mcycles", mcycles(quiet_mean_ms), "Mcycle",
                                     quiet.ops(), quiet_note});
  if (o.workload == "revocation_churn") {
    det.push_back(Metric{"denied", static_cast<double>(denied), "count", 0,
                         "expected denials of revoked identities"});
    det.push_back(Metric{"must_deny", static_cast<double>(must_deny), "count", 0,
                         "requests the oracle required to be denied"});
  }
  det.push_back(Metric{"oracle_violations", static_cast<double>(result.violations),
                       "count", 0, ""});
  det.push_back(Metric{"verified_signatures", static_cast<double>(sigs.size()), "count",
                       0, "independent gdh::verify after the run"});

  // --- per layer -----------------------------------------------------------
  auto& pl = result.per_layer;
  std::vector<const SpanLog*> logs;
  for (const ClientOut& out : outs) logs.push_back(&out.log);
  const TraceSummary ts = summarize_trace(logs);
  const auto made = [&](SpanName name) -> const std::vector<double>& {
    const auto& v = ts.duration_us[static_cast<std::size_t>(name)];
    if (o.trace && v.empty()) {
      result.invalid.push_back(std::string("no ") + span_name(name) +
                               " span, though the workload makes that call");
    }
    return v;
  };
  const auto span_metric = [&](const char* metric, SpanName name, double divisor) {
    if (std::find(makes.begin(), makes.end(), name) == makes.end()) {
      pl.push_back(Metric{metric, probe_us[static_cast<std::size_t>(name)] / divisor, "us",
                          0, "stand-alone probe (call not in this workload)"});
      result.probed.push_back(metric);
      return;
    }
    const auto& v = made(name);
    pl.push_back(Metric{metric, v.empty() ? 0 : median_of(v) / divisor, "us", v.size(),
                        "workload span"});
  };
  span_metric("mediated.ibe_token_us", SpanName::kIbeToken, 1);
  span_metric("mediated.ibe_batch_token_us", SpanName::kIbeBatchToken,
              static_cast<double>(kBatchWidth));
  span_metric("mediated.gdh_token_us", SpanName::kGdhToken, 1);
  span_metric("mediated.mrsa_token_us", SpanName::kMrsaToken, 1);
  {
    std::vector<double> v = made(SpanName::kSnapshot);
    std::sort(v.begin(), v.end());
    pl.push_back(Metric{"mediated.snapshot_wait_p99_us", percentile_sorted(v, 0.99), "us",
                        v.size(), ""});
  }
  pl.push_back(Metric{"mediated.tokens_issued",
                      static_cast<double>(sem1.tokens_issued - sem0.tokens_issued), "count", 0, ""});
  pl.push_back(Metric{"mediated.denials", static_cast<double>(sem1.denials - sem0.denials),
                      "count", 0, ""});
  pl.push_back(Metric{"mediated.unknown_identities",
                      static_cast<double>(sem1.unknown_identities - sem0.unknown_identities),
                      "count", 0, ""});
  pl.push_back(Metric{"mediated.revoked_size", static_cast<double>(revoked_size), "count", 0,
                      "at the end of the window"});
  pl.push_back(Metric{"mediated.epochs_published", static_cast<double>(epoch1 - epoch0),
                      "count", 0, ""});
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  pl.push_back(Metric{"ec.h1_cache_hits", hits, "count", 0, ""});
  pl.push_back(Metric{"ec.h1_cache_misses", misses, "count", 0, ""});
  pl.push_back(Metric{"ec.h1_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
                      "ratio", 0, ""});
  span_metric("ec.hash_message_us", SpanName::kHashMessage, 1);
  span_metric("ec.user_scalar_mul_us", SpanName::kUserScalarMul, 1);
  span_metric("pairing.user_partial_us", SpanName::kUserPartial, 1);
  span_metric("pairing.verify_us", SpanName::kVerify, 1);
  span_metric("ibe.unmask_us", SpanName::kIbeUnmask, 1);
  span_metric("rsa.user_half_us", SpanName::kRsaUserHalf, 1);
  span_metric("rsa.oaep_decode_us", SpanName::kRsaOaepDecode, 1);
  {
    std::vector<double> lag = gather(outs, &ClientOut::lag_ms);
    std::sort(lag.begin(), lag.end());
    pl.push_back(Metric{"harness.sched_lag_p99_ms", percentile_sorted(lag, 0.99), "ms",
                        lag.size(),
                        o.workload == "revocation_churn" ? "generator lateness"
                                                         : "closed-loop issue gap"});
  }
  pl.push_back(Metric{"trace.coverage", ts.min_coverage(), "ratio", 0,
                      "lowest over op kinds"});
  if (o.trace && ts.min_coverage() < 0.90) {
    result.invalid.push_back("trace.coverage " + std::to_string(ts.min_coverage()) +
                             " is under 0.90");
  }
  const auto traced = gather(outs, &ClientOut::traced_ms);
  const auto untraced = gather(outs, &ClientOut::untraced_ms);
  const double overhead = traced.empty() || untraced.empty()
                              ? 0
                              : (median_of(traced) / median_of(untraced) - 1.0) * 100.0;
  pl.push_back(Metric{"trace.overhead_pct", overhead, "%", traced.size(),
                      "traced vs untraced op medians, same run"});
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const auto name = static_cast<SpanName>(i);
    if (is_root(name) && ts.root_total_us[i] > 0) {
      det.push_back(Metric{std::string(span_name(name)) + ".coverage", ts.coverage(name),
                           "ratio", ts.duration_us[i].size(), ""});
      det.push_back(Metric{std::string(span_name(name)) + ".residual_us",
                           median_of(ts.self_us[i]), "us", ts.self_us[i].size(),
                           "median root self time"});
    }
  }
  for (const auto name : {SpanName::kIbeEncrypt, SpanName::kRsaEncrypt}) {
    const auto& v = ts.duration_us[static_cast<std::size_t>(name)];
    if (!v.empty()) {
      det.push_back(Metric{std::string(span_name(name)) + "_us", median_of(v), "us",
                           v.size(), ""});
    }
  }

  if (o.trace && !o.out_dir.empty()) {
    const std::string path = o.out_dir + "/" + o.workload + ".spans.jsonl";
    if (!write_spans(path, logs)) {
      result.errors.push_back("could not write " + path);
    }
  }
}

}  // namespace medbench
