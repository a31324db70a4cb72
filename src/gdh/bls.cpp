#include "gdh/bls.h"

#include "ec/hash_to_point.h"
#include "pairing/prepared_cache.h"
#include "pairing/tate.h"

namespace medcrypt::gdh {

KeyPair keygen(const pairing::ParamSet& group, RandomSource& rng) {
  const BigInt x = BigInt::random_unit(rng, group.order());
  return KeyPair{x, group.mul_g(x)};
}

Point hash_message(const pairing::ParamSet& group, BytesView message) {
  return ec::hash_to_subgroup(group.curve, "GDH.h", message);
}

Point sign(const pairing::ParamSet& group, const BigInt& secret,
           BytesView message) {
  return hash_message(group, message).mul(secret);
}

bool verify(const pairing::ParamSet& group, const Point& pub,
            BytesView message, const Point& signature) {
  return verify_hashed(group, pub, hash_message(group, message), signature);
}

bool verify_hashed(const pairing::ParamSet& group, const Point& pub,
                   const Point& h, const Point& signature) {
  if (signature.is_infinity() || !signature.in_subgroup()) return false;
  const pairing::TatePairing pairing(group.curve);
  // ê(P, σ) = ê(R, h)  ⇔  ê(P, σ)·ê(−R, h) == 1 — one product
  // multi-pairing (shared squaring chain, single final exponentiation)
  // instead of two independent pairings, with both fixed first
  // arguments' Miller programs served from the prepared cache.
  const Point neg_pub = -pub;
  const auto prep_gen =
      pairing::shared_prepared(pairing, group.generator, "gdh.verify");
  const auto prep_neg_pub =
      pairing::shared_prepared(pairing, neg_pub, "gdh.verify");
  const pairing::TatePairing::PairTerm terms[] = {
      {nullptr, prep_gen.get(), &signature},
      {nullptr, prep_neg_pub.get(), &h}};
  return pairing.pair_many(terms).is_one();
}

std::pair<BigInt, BigInt> split_key(const BigInt& secret, const BigInt& q,
                                    RandomSource& rng) {
  const BigInt x_user = BigInt::random_unit(rng, q);
  return {x_user, secret.mod(q).sub_mod(x_user, q)};
}

}  // namespace medcrypt::gdh
