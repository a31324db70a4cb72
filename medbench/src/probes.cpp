// Same-run calibration probes and stand-alone layer probes. Both run on
// one thread, before the load, in traced runs only.
#include <algorithm>

#include "bench.h"
#include "ec/hash_to_point.h"
#include "field/fp2.h"
#include "hash/drbg.h"
#include "ibe/boneh_franklin.h"
#include "pairing/tate.h"
#include "rsa/oaep.h"

namespace medbench {

using namespace medcrypt;
using field::Fp;
using field::Fp2;

namespace {

volatile bool g_sink = false;

/// Median over `rounds` of the mean ns per call of `iters` calls of fn.
template <typename Fn>
double median_ns_per_call(int rounds, int iters, Fn&& fn) {
  fn();  // lazy set-up and caches
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) / iters);
  }
  std::sort(per_call.begin(), per_call.end());
  return percentile_sorted(per_call, 0.5);
}

}  // namespace

void run_calibration(const pairing::ParamSet& group, std::uint64_t seed,
                     std::vector<Metric>& out) {
  hash::HmacDrbg rng(derive_seed(seed, 7));
  const auto& field = group.curve->field();
  const pairing::TatePairing tate(group.curve);

  Fp a = field->random(rng);
  const Fp b = field->random(rng);
  const double fp_mul_ns = median_ns_per_call(9, 20000, [&] { a *= b; });

  Fp2 x = Fp2::random(field, rng);
  const Fp2 y = Fp2::random(field, rng);
  const double fp2_mul_ns = median_ns_per_call(9, 5000, [&] { x.mul_inplace(y); });

  const Point p = group.mul_g(BigInt::random_unit(rng, group.order()));
  const Point q = group.mul_g(BigInt::random_unit(rng, group.order()));
  Fp2 sink;
  const double pair_ns = median_ns_per_call(5, 10, [&] { sink = tate.pair(p, q); });

  const pairing::PreparedPairing prepared = tate.prepare(p);
  const double miller_ns =
      median_ns_per_call(5, 10, [&] { sink = tate.miller_with(prepared, q); });

  const Fp2 f = tate.miller_with(prepared, q);
  std::vector<Fp2> one(1);
  const double final_exp_ns = median_ns_per_call(5, 10, [&] {
    one[0] = f;
    tate.final_exponentiation_batch(one);
  });

  const BigInt k = BigInt::random_unit(rng, group.order());
  Point psink;
  const double scalar_mul_ns = median_ns_per_call(5, 10, [&] { psink = q.mul(k); });

  std::uint64_t counter = seed;
  const double h2p_ns = median_ns_per_call(5, 10, [&] {
    Bytes input(8);
    ++counter;
    for (std::size_t i = 0; i < 8; ++i) input[i] = static_cast<std::uint8_t>(counter >> (8 * i));
    psink = ec::hash_to_subgroup(group.curve, "medbench.probe", input);
  });

  // Keep every probe's result observable so none is optimized away.
  g_sink = a.is_zero() || x.is_zero() || sink.is_zero() || one[0].is_zero() ||
           psink.is_infinity();

  out.push_back(Metric{"field.fp_mul_ns", fp_mul_ns, "ns", 9, "median of 9 x 20000"});
  const auto probe = [&](const std::string& name, double ns, double scale,
                         const char* unit) {
    out.push_back(Metric{name, ns / scale, unit, 5, ""});
    out.push_back(Metric{name + ".fpmul", ns / fp_mul_ns, "fpmul", 5, "ratio to FpMul"});
  };
  probe("field.fp2_mul_ns", fp2_mul_ns, 1, "ns");
  probe("pairing.pair_us", pair_ns, 1e3, "us");
  probe("pairing.miller_with_us", miller_ns, 1e3, "us");
  probe("pairing.final_exp_us", final_exp_ns, 1e3, "us");
  probe("ec.scalar_mul_us", scalar_mul_ns, 1e3, "us");
  probe("ec.hash_to_point_us", h2p_ns, 1e3, "us");
}

std::vector<double> run_layer_probes(const Deployment& d, std::uint64_t seed) {
  constexpr int kRounds = 15;
  hash::HmacDrbg rng(derive_seed(seed, 8));
  std::vector<double> us(kSpanNames, 0.0);
  const auto set = [&](SpanName name, auto&& fn) {
    us[static_cast<std::size_t>(name)] = median_ns_per_call(kRounds, 1, fn) / 1e3;
  };
  const std::string& id = d.ids[0];
  const ibe::FullCiphertext& ct = d.pool[0];
  const ibe::SystemParams& params = d.pkg->params();

  set(SpanName::kSnapshot, [&] { (void)d.revocations->snapshot(); });

  Fp2 g_sem = d.ibe_sem->issue_token(id, ct.u);
  set(SpanName::kIbeToken, [&] { g_sem = d.ibe_sem->issue_token(id, ct.u); });
  std::vector<mediated::IbeMediator::TokenRequest> batch;
  for (std::size_t u = 0; u < d.ids.size(); ++u) batch.push_back({d.ids[u], &d.pool[u].u});
  set(SpanName::kIbeBatchToken, [&] { (void)d.ibe_sem->issue_tokens(batch); });
  Fp2 g_user;
  set(SpanName::kUserPartial, [&] { g_user = d.ibe_users[0].partial(ct.u); });
  const Fp2 g = g_sem * g_user;
  set(SpanName::kIbeUnmask, [&] { (void)ibe::full_decrypt_with_mask(params, g, ct); });

  // GDH on distinct messages, so the SEM takes its uncached path.
  std::size_t next = 0;
  set(SpanName::kGdhToken, [&] {
    (void)d.gdh_sem->issue_token(id, d.messages[next++ % d.messages.size()]);
  });
  const Bytes& msg = d.messages[0];
  Point h;
  set(SpanName::kHashMessage, [&] { h = gdh::hash_message(*d.group, msg); });
  Point s_user;
  set(SpanName::kUserScalarMul, [&] { s_user = h.mul(d.gdh_shares[0]); });
  const Point sig = d.gdh_sem->issue_token(id, msg) + s_user;
  set(SpanName::kVerify, [&] {
    (void)gdh::verify(*d.group, d.gdh_users[0].public_key(), msg, sig);
  });

  const mediated::IbMRsaParams& rp = d.mrsa->params();
  const BigInt c = BigInt::from_bytes_be(mediated::ib_mrsa_encrypt(rp, id, msg, rng));
  BigInt m_sem;
  set(SpanName::kMrsaToken, [&] { m_sem = d.mrsa_sem->issue_token(id, c); });
  BigInt m_user;
  set(SpanName::kRsaUserHalf,
      [&] { m_user = c.pow_mod(d.mrsa_users[0].user_key(), rp.modulus); });
  const BigInt m = m_sem.mul_mod(m_user, rp.modulus);
  set(SpanName::kRsaOaepDecode, [&] { (void)rsa::oaep_decode(m, rp.byte_size()); });
  return us;
}

}  // namespace medbench
