// Differential tests for the fixed-limb arithmetic rewrite: every Fp/Fp2
// operation (including the in-place hot-path variants) is checked against
// a naive BigInt reference on random inputs, and the fixed-base window
// tables are checked against plain double-and-add — including the scalar
// edge cases k = 0, k = order and k > order that the window walk must
// reduce away.
#include <gtest/gtest.h>

#include "bigint/bigint.h"
#include "bigint/prime.h"
#include "common/error.h"
#include "ec/fixed_base.h"
#include "ec/jacobian.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "field/safegcd.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt {
namespace {

using bigint::BigInt;
using ec::FixedBaseTable;
using ec::Point;
using field::Fp;
using field::Fp2;
using field::PrimeField;
using hash::HmacDrbg;

// The three limb widths the suite exercises: 1-limb, a mid-size prime,
// and the 4-limb secp256k1 prime (all ≡ 3 mod 4 so sqrt() is the cheap
// exponentiation path the pairing parameters use).
std::vector<std::shared_ptr<const PrimeField>> test_fields() {
  return {
      PrimeField::make(BigInt(103)),
      PrimeField::make(BigInt::from_hex("ffffffffffffffc5")),  // 2^64 - 59
      PrimeField::make(BigInt::from_hex(
          "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")),
  };
}

// The Fp tests add every named parameter set's field: those are the
// widths the dispatched limb kernels run on.
std::vector<std::shared_ptr<const PrimeField>> fp_fields() {
  auto out = test_fields();
  for (const char* name : {"toy64", "mid128", "sweep384", "sec80"}) {
    out.push_back(pairing::named_params(name).curve->field());
  }
  return out;
}

// Operand values for the Fp tests: edges of the limb-level add/sub/neg
// carry and borrow verdicts, then `randoms` uniform values. Fp holds
// x·R mod p, so besides the values 0, 1, p-1 and R mod p the pool holds
// R^-1 and -R^-1, whose limbs are 1 and p-1. The tests compare results
// with Fp's operator==, limb for limb, against the canonical encoding:
// an unreduced result (p in place of 0) still converts to the right
// value.
std::vector<BigInt> fp_operands(const PrimeField& f, HmacDrbg& rng,
                                int randoms) {
  const BigInt& p = f.modulus();
  const BigInt r_mod_p = (BigInt(1) << (64 * f.mont().limbs())).mod(p);
  const BigInt r_inv = r_mod_p.mod_inverse(p);
  std::vector<BigInt> pool = {BigInt(0), BigInt(1), p - BigInt(1),
                              r_mod_p,   r_inv,     p - r_inv};
  for (int i = 0; i < randoms; ++i) {
    pool.push_back(BigInt::random_below(rng, p));
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Fp vs BigInt reference
// ---------------------------------------------------------------------------

TEST(ArithDiff, FpValueOpsMatchBigInt) {
  HmacDrbg rng(9001);
  for (const auto& f : fp_fields()) {
    const BigInt& p = f->modulus();
    const auto pool = fp_operands(*f, rng, 10);
    for (const BigInt& av : pool) {
      const Fp a = f->from_bigint(av);
      EXPECT_EQ(-a, f->from_bigint(BigInt(0).sub_mod(av, p)));
      EXPECT_EQ(a.square(), f->from_bigint(av.mul_mod(av, p)));
      EXPECT_EQ(a.dbl(), f->from_bigint(av.add_mod(av, p)));
      for (const BigInt& bv : pool) {
        const Fp b = f->from_bigint(bv);
        EXPECT_EQ(a + b, f->from_bigint(av.add_mod(bv, p)));
        EXPECT_EQ(a - b, f->from_bigint(av.sub_mod(bv, p)));
        EXPECT_EQ(a * b, f->from_bigint(av.mul_mod(bv, p)));
      }
    }
  }
}

TEST(ArithDiff, FpInplaceOpsMatchBigInt) {
  HmacDrbg rng(9002);
  for (const auto& f : fp_fields()) {
    const BigInt& p = f->modulus();
    const auto pool = fp_operands(*f, rng, 10);
    for (const BigInt& av : pool) {
      const Fp a = f->from_bigint(av);
      Fp t = a;
      t.square_inplace();
      EXPECT_EQ(t, f->from_bigint(av.mul_mod(av, p)));
      t = a;
      t.dbl_inplace();
      EXPECT_EQ(t, f->from_bigint(av.add_mod(av, p)));
      t = a;
      t.negate_inplace();
      EXPECT_EQ(t, f->from_bigint(BigInt(0).sub_mod(av, p)));
      for (const BigInt& bv : pool) {
        const Fp b = f->from_bigint(bv);
        t = a;
        t += b;
        EXPECT_EQ(t, f->from_bigint(av.add_mod(bv, p)));
        t = a;
        t -= b;
        EXPECT_EQ(t, f->from_bigint(av.sub_mod(bv, p)));
        t = a;
        t *= b;
        EXPECT_EQ(t, f->from_bigint(av.mul_mod(bv, p)));
      }
    }
  }
}

// The in-place ops promise alias safety: x op= x must equal x op x.
TEST(ArithDiff, FpInplaceOpsAliasSafe) {
  HmacDrbg rng(9003);
  for (const auto& f : fp_fields()) {
    const BigInt& p = f->modulus();
    for (const BigInt& av : fp_operands(*f, rng, 25)) {
      const Fp a = f->from_bigint(av);

      Fp t = a;
      t += t;
      EXPECT_EQ(t, f->from_bigint(av.add_mod(av, p)));
      t = a;
      t *= t;
      EXPECT_EQ(t, f->from_bigint(av.mul_mod(av, p)));
      t = a;
      t -= t;
      EXPECT_TRUE(t.is_zero());
    }
  }
}

// The inversion tests add two fields wider than LimbStore's 8 inline
// limbs: the Mersenne prime 2^521 - 1 (9 limbs of all ones) and a
// random 1100-bit prime (18 limbs, the generic CIOS multiply).
std::vector<std::shared_ptr<const PrimeField>> inverse_fields() {
  auto out = fp_fields();
  out.push_back(PrimeField::make((BigInt(1) << 521) - BigInt(1)));
  HmacDrbg prime_rng(9010);
  out.push_back(PrimeField::make(bigint::generate_prime(1100, prime_rng)));
  return out;
}

// Fp::inverse (constant-time safegcd plus one multiply by R^3) against
// Fermat's pow(p - 2) and BigInt's extended GCD, and pow against
// BigInt::pow_mod, limb for limb.
TEST(ArithDiff, FpInverseAndPowMatchBigInt) {
  HmacDrbg rng(9004);
  for (const auto& f : inverse_fields()) {
    const BigInt& p = f->modulus();
    const BigInt fermat = p - BigInt(2);
    for (const BigInt& av : fp_operands(*f, rng, 10)) {
      const Fp a = f->from_bigint(av);
      const BigInt ev = BigInt::random_below(rng, p);
      EXPECT_EQ(a.pow(ev), f->from_bigint(av.pow_mod(ev, p)));
      if (av.is_zero()) {
        EXPECT_THROW(a.inverse(), InvalidArgument);
        continue;
      }
      const Fp inv = a.inverse();
      EXPECT_EQ(inv, a.pow(fermat)) << "p = " << p.to_hex();
      EXPECT_EQ(inv, f->from_bigint(av.mod_inverse(p)));
      EXPECT_TRUE((inv * a).is_one());
    }
  }
}

// SafeGcd::invert on plain residues, out of place and with `out`
// aliasing `a`; 0 maps to exactly 0 (all-zero limbs, not p).
TEST(ArithDiff, SafeGcdInvertMatchesBigIntInPlace) {
  HmacDrbg rng(9012);
  for (const auto& f : inverse_fields()) {
    const BigInt& p = f->modulus();
    const auto& mont = f->mont();
    const std::size_t k = mont.limbs();
    for (const BigInt& av : fp_operands(*f, rng, 10)) {
      std::vector<std::uint64_t> want(k);
      mont.pad_limbs(av.is_zero() ? BigInt(0) : av.mod_inverse(p),
                     want.data());
      std::vector<std::uint64_t> a(k);
      std::vector<std::uint64_t> out(k, ~std::uint64_t{0});
      mont.pad_limbs(av, a.data());
      f->safegcd().invert(a.data(), out.data());
      EXPECT_EQ(out, want) << "p = " << p.to_hex() << ", a = " << av.to_hex();
      f->safegcd().invert(a.data(), a.data());
      EXPECT_EQ(a, want) << "in place, p = " << p.to_hex();
    }
  }
}

// Past 4096 bits the scratch moves to the heap; the algorithm is the
// same. Any odd modulus works for units, so 2^4200 + 1 stands in for a
// field that wide.
TEST(ArithDiff, SafeGcdInvertsPastTheStackScratch) {
  HmacDrbg rng(9013);
  const BigInt m = (BigInt(1) << 4200) + BigInt(1);
  const field::SafeGcd inv(m);
  const bigint::Montgomery mont(m);
  const std::size_t k = mont.limbs();
  std::vector<BigInt> pool = {BigInt(1), BigInt(2), m - BigInt(1)};
  for (int i = 0; i < 3; ++i) pool.push_back(BigInt::random_below(rng, m));
  for (const BigInt& av : pool) {
    BigInt expected;
    try {
      expected = av.mod_inverse(m);
    } catch (const Error&) {
      continue;  // not a unit mod m
    }
    std::vector<std::uint64_t> a(k), want(k);
    mont.pad_limbs(av, a.data());
    mont.pad_limbs(expected, want.data());
    inv.invert(a.data(), a.data());
    EXPECT_EQ(a, want) << "a = " << av.to_hex();
  }
}

// The divstep count is the Theorem 11.2 bound for the modulus' bit
// length in whole 62-step batches: equal for equal bit lengths.
TEST(ArithDiff, SafeGcdStepCountFollowsBitLength) {
  EXPECT_EQ(field::SafeGcd(BigInt(103)).divsteps(), 62u);
  const auto& sec80 = pairing::named_params("sec80").curve->field();
  EXPECT_EQ(sec80->safegcd().divsteps(), 24u * 62u);  // ⌈(49·512+80)/17⌉ = 1481
  EXPECT_EQ(field::SafeGcd((BigInt(1) << 511) + BigInt(1)).divsteps(),
            24u * 62u);
  EXPECT_THROW(field::SafeGcd(BigInt(100)), InvalidArgument);
  EXPECT_THROW(field::SafeGcd(BigInt(1)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Fp2 vs component-wise BigInt reference
// ---------------------------------------------------------------------------

struct Fp2Ref {
  BigInt a, b;  // a + b·i, i^2 = -1
};

Fp2Ref ref_mul(const Fp2Ref& x, const Fp2Ref& y, const BigInt& p) {
  // (a + bi)(c + di) = (ac - bd) + (ad + bc)i
  return Fp2Ref{x.a.mul_mod(y.a, p).sub_mod(x.b.mul_mod(y.b, p), p),
                x.a.mul_mod(y.b, p).add_mod(x.b.mul_mod(y.a, p), p)};
}

// Fp2 elements pair up Fp pool values (edges and randoms) as real and
// imaginary parts; results are compared limb for limb with Fp's
// operator== against the canonical encoding of the reference value.
TEST(ArithDiff, Fp2MulAndSquareMatchReference) {
  HmacDrbg rng(9005);
  for (const auto& f : fp_fields()) {
    const BigInt& p = f->modulus();
    const auto pool = fp_operands(*f, rng, 3);
    std::vector<Fp2Ref> refs;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      refs.push_back(Fp2Ref{pool[i], pool[(i * 5 + 1) % pool.size()]});
      refs.push_back(Fp2Ref{pool[i], pool[i]});
    }
    const auto lift = [&](const Fp2Ref& r) {
      return Fp2(f->from_bigint(r.a), f->from_bigint(r.b));
    };
    for (const Fp2Ref& xr : refs) {
      const Fp2 x = lift(xr);
      const Fp2 s = x.square();
      EXPECT_EQ(s, lift(ref_mul(xr, xr, p)));
      Fp2 t = x;
      t.square_inplace();
      EXPECT_EQ(t, s);
      t = x;
      t.mul_inplace(t);
      EXPECT_EQ(t, s);
      for (const Fp2Ref& yr : refs) {
        const Fp2 y = lift(yr);
        const Fp2 z = x * y;
        EXPECT_EQ(z, lift(ref_mul(xr, yr, p)));
        t = x;
        t.mul_inplace(y);
        EXPECT_EQ(t, z);
      }
    }
  }
}

TEST(ArithDiff, Fp2InverseAndPow) {
  HmacDrbg rng(9006);
  for (const auto& f : test_fields()) {
    for (int iter = 0; iter < 10; ++iter) {
      const Fp2 x = Fp2::random(f, rng);
      if (x.is_zero()) continue;
      EXPECT_TRUE((x * x.inverse()).is_one());

      // pow against naive repeated multiplication for a small exponent.
      Fp2 acc = Fp2::one(f);
      for (int e = 0; e < 16; ++e) {
        EXPECT_EQ(x.pow(BigInt(e)), acc);
        acc *= x;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fixed-base tables and jac_mul vs plain double-and-add
// ---------------------------------------------------------------------------

// Textbook MSB-first double-and-add with affine additions only — the
// slow, obviously-correct reference both fast paths are compared to.
Point naive_mul(const Point& base, const BigInt& k) {
  Point acc = base.curve()->infinity();
  if (k <= BigInt(0)) return acc;
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = acc.dbl();
    if (k.bit(i)) acc += base;
  }
  return acc;
}

TEST(ArithDiff, FixedBaseTableMatchesNaiveMul) {
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  HmacDrbg rng(9007);
  const FixedBaseTable table(g.generator, q);

  for (int iter = 0; iter < 20; ++iter) {
    const BigInt k = BigInt::random_below(rng, q);
    const Point expected = naive_mul(g.generator, k);
    EXPECT_EQ(table.mul(k), expected);
    EXPECT_EQ(ec::jac_mul(g.generator, k), expected);
  }
}

TEST(ArithDiff, FixedBaseTableScalarEdgeCases) {
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  const FixedBaseTable table(g.generator, q);

  // k = 0 and k = order both hit the identity.
  EXPECT_TRUE(table.mul(BigInt(0)).is_infinity());
  EXPECT_TRUE(table.mul(q).is_infinity());
  EXPECT_TRUE(ec::jac_mul(g.generator, BigInt(0)).is_infinity());

  // k > order reduces: (q + 7)·P = 7·P; (2q + 1)·P = P.
  EXPECT_EQ(table.mul(q + BigInt(7)), naive_mul(g.generator, BigInt(7)));
  EXPECT_EQ(table.mul(q + q + BigInt(1)), g.generator);
  EXPECT_EQ(ec::jac_mul(g.generator, q + BigInt(7)),
            naive_mul(g.generator, BigInt(7)));

  // k = 1 and k = order - 1 (the -P edge of the last window).
  EXPECT_EQ(table.mul(BigInt(1)), g.generator);
  EXPECT_EQ(table.mul(q - BigInt(1)), -g.generator);
}

TEST(ArithDiff, FixedBaseTableNonGeneratorBase) {
  // A table over an arbitrary subgroup point (not the cached generator),
  // as the IBS mediator builds over its secret key halves.
  const pairing::ParamSet& g = pairing::toy_params();
  const BigInt& q = g.order();
  HmacDrbg rng(9008);
  const Point base = g.mul_g(BigInt::random_unit(rng, q));
  const FixedBaseTable table(base, q);

  for (int iter = 0; iter < 10; ++iter) {
    const BigInt k = BigInt::random_below(rng, q);
    EXPECT_EQ(table.mul(k), naive_mul(base, k));
  }
}

TEST(ArithDiff, FixedBaseTableInfinityBase) {
  const pairing::ParamSet& g = pairing::toy_params();
  const FixedBaseTable table(g.curve->infinity(), g.order());
  EXPECT_TRUE(table.mul(BigInt(5)).is_infinity());
  EXPECT_TRUE(table.mul(BigInt(0)).is_infinity());
}

TEST(ArithDiff, FixedBaseTableWipeReturnsToEmpty) {
  const pairing::ParamSet& g = pairing::toy_params();
  FixedBaseTable table(g.generator, g.order());
  EXPECT_FALSE(table.empty());
  EXPECT_GT(table.point_count(), 0u);
  table.wipe();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.point_count(), 0u);
}

}  // namespace
}  // namespace medcrypt
