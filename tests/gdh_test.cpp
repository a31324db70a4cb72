// Tests for the GDH (BLS) signature: correctness, unforgeability smoke
// checks, key splitting for the mediated variant, signature size.
#include <gtest/gtest.h>

#include "gdh/bls.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt::gdh {
namespace {

using hash::HmacDrbg;

class GdhTest : public ::testing::Test {
 protected:
  GdhTest() : rng_(95), group_(pairing::toy_params()) {}

  HmacDrbg rng_;
  const pairing::ParamSet& group_;
};

TEST_F(GdhTest, SignVerifyRoundTrip) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("transfer 100 to bob");
  const Point sig = sign(group_, kp.secret, msg);
  EXPECT_TRUE(verify(group_, kp.pub, msg, sig));
}

TEST_F(GdhTest, VerifyRejectsWrongMessage) {
  const KeyPair kp = keygen(group_, rng_);
  const Point sig = sign(group_, kp.secret, str_bytes("msg A"));
  EXPECT_FALSE(verify(group_, kp.pub, str_bytes("msg B"), sig));
}

TEST_F(GdhTest, VerifyRejectsWrongKey) {
  const KeyPair kp1 = keygen(group_, rng_);
  const KeyPair kp2 = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  EXPECT_FALSE(verify(group_, kp2.pub, msg, sign(group_, kp1.secret, msg)));
}

TEST_F(GdhTest, VerifyRejectsTamperedSignature) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  const Point sig = sign(group_, kp.secret, msg);
  EXPECT_FALSE(verify(group_, kp.pub, msg, sig + group_.generator));
  EXPECT_FALSE(verify(group_, kp.pub, msg, -sig));
  EXPECT_FALSE(verify(group_, kp.pub, msg, group_.curve->infinity()));
}

// A point of order dividing the cofactor: q·P for a curve point P
// outside the subgroup.
Point cofactor_order_point(const pairing::ParamSet& group) {
  const auto& curve = group.curve;
  for (std::uint64_t xv = 1;; ++xv) {
    const auto x = curve->field()->from_u64(xv);
    const auto rhs = curve->rhs(x);
    if (rhs.is_zero() || !rhs.is_square()) continue;
    const Point t = curve->point(x, rhs.sqrt()).mul(group.order());
    if (!t.is_infinity()) return t;
  }
}

TEST_F(GdhTest, VerifyHashedAgreesWithVerify) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg A");
  const Bytes other = str_bytes("msg B");
  const Point h = hash_message(group_, msg);
  const Point sig = sign(group_, kp.secret, msg);
  const Point t = cofactor_order_point(group_);
  ASSERT_FALSE(t.in_subgroup());

  EXPECT_TRUE(verify(group_, kp.pub, msg, sig));
  EXPECT_TRUE(verify_hashed(group_, kp.pub, h, sig));
  // Wrong message.
  EXPECT_FALSE(verify(group_, kp.pub, other, sig));
  EXPECT_FALSE(
      verify_hashed(group_, kp.pub, hash_message(group_, other), sig));
  // Infinity.
  const Point inf = group_.curve->infinity();
  EXPECT_FALSE(verify(group_, kp.pub, msg, inf));
  EXPECT_FALSE(verify_hashed(group_, kp.pub, h, inf));
  // σ plus a cofactor-order point.
  EXPECT_FALSE(verify(group_, kp.pub, msg, sig + t));
  EXPECT_FALSE(verify_hashed(group_, kp.pub, h, sig + t));
}

TEST_F(GdhTest, SignatureIsDeterministic) {
  const KeyPair kp = keygen(group_, rng_);
  const Bytes msg = str_bytes("msg");
  EXPECT_EQ(sign(group_, kp.secret, msg), sign(group_, kp.secret, msg));
}

TEST_F(GdhTest, SignatureIsOneCompressedPoint) {
  // The headline size claim: a GDH signature is one G1 element —
  // ~|p| bits with point compression (vs 1024-bit RSA).
  const KeyPair kp = keygen(group_, rng_);
  const Point sig = sign(group_, kp.secret, str_bytes("m"));
  EXPECT_EQ(sig.to_bytes().size(), group_.curve->compressed_size());
}

TEST_F(GdhTest, SplitKeyRecombines) {
  const KeyPair kp = keygen(group_, rng_);
  const auto [x_user, x_sem] = split_key(kp.secret, group_.order(), rng_);
  EXPECT_EQ(x_user.add_mod(x_sem, group_.order()), kp.secret);

  // Half-signatures add to the full signature (the §5 protocol).
  const Bytes msg = str_bytes("pay");
  const Point h = hash_message(group_, msg);
  const Point full = h.mul(x_user) + h.mul(x_sem);
  EXPECT_EQ(full, sign(group_, kp.secret, msg));
  EXPECT_TRUE(verify(group_, kp.pub, msg, full));
}

TEST_F(GdhTest, HalfSignatureDoesNotVerify) {
  const KeyPair kp = keygen(group_, rng_);
  const auto [x_user, x_sem] = split_key(kp.secret, group_.order(), rng_);
  const Bytes msg = str_bytes("pay");
  const Point h = hash_message(group_, msg);
  EXPECT_FALSE(verify(group_, kp.pub, msg, h.mul(x_user)));
  EXPECT_FALSE(verify(group_, kp.pub, msg, h.mul(x_sem)));
}

TEST_F(GdhTest, HashMessageInSubgroup) {
  for (const char* m : {"a", "b", "hello world", ""}) {
    const Point h = hash_message(group_, str_bytes(m));
    EXPECT_FALSE(h.is_infinity());
    EXPECT_TRUE(h.in_subgroup());
  }
}

TEST_F(GdhTest, AggregationProperty) {
  // BLS linearity: sig(x1+x2, m) = sig(x1, m) + sig(x2, m) — the algebra
  // behind both the threshold and the mediated variants.
  const KeyPair a = keygen(group_, rng_);
  const KeyPair b = keygen(group_, rng_);
  const Bytes msg = str_bytes("joint");
  const Point joint_sig =
      sign(group_, a.secret, msg) + sign(group_, b.secret, msg);
  const Point joint_pub = a.pub + b.pub;
  EXPECT_TRUE(verify(group_, joint_pub, msg, joint_sig));
}

}  // namespace
}  // namespace medcrypt::gdh
