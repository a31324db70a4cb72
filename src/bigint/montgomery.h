// Montgomery-form modular arithmetic for odd moduli.
//
// A Montgomery context precomputes R = 2^(64k), R^2 mod N and
// -N^{-1} mod 2^64 (for k = 16 also -N^{-1} mod 2^512, the block
// kernel's constant) for a fixed odd modulus N of k limbs, and offers
// Montgomery multiplication and fixed-window exponentiation. The
// prime-field layer keeps its elements permanently in Montgomery form
// and reuses one shared context per field, which is what makes the
// 512-bit Tate pairing usable.
//
// Two API levels coexist:
//  - BigInt-valued (mul/to_mont/from_mont/pow/pow_mont): take and return
//    BigInts. mul and the conversions allocate per call and serve setup
//    code; pow/pow_mont (behind every odd-modulus BigInt::pow_mod: RSA,
//    IB-mRSA/mRSA halves, Miller–Rabin) run on one limb buffer set —
//    on the stack for k <= 16 — through the dispatched kernels.
//  - Limb-level (mul_limbs/add_limbs/...): operates on fixed k-limb
//    little-endian arrays owned by the caller and never allocates, which
//    is what keeps the field/curve/pairing hot path off the heap. All
//    limb-level routines tolerate `out` aliasing an input.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint {

/// Montgomery multiplication/exponentiation context for an odd modulus.
class Montgomery {
 public:
  /// Builds the context. Throws InvalidArgument unless n is odd and > 1.
  explicit Montgomery(BigInt n);

  const BigInt& modulus() const { return n_; }

  /// Number of 64-bit limbs of the modulus.
  std::size_t limbs() const { return k_; }

  /// Converts a (already reduced mod n) into Montgomery form: a*R mod n.
  BigInt to_mont(const BigInt& a) const;

  /// Converts a Montgomery-form value back to the ordinary residue.
  BigInt from_mont(const BigInt& a) const;

  /// Montgomery product: a*b*R^{-1} mod n for Montgomery-form a, b.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// The Montgomery form of 1 (i.e. R mod n).
  const BigInt& one() const { return one_; }

  /// base^e mod n for an *ordinary* (non-Montgomery) base; returns an
  /// ordinary residue. Requires 0 <= base < n and e >= 0.
  ///
  /// Fixed 4-bit window: ceil(e.bit_length()/4) windows, each after the
  /// first costing 4 squarings and one multiply by a table entry picked
  /// with a masked scan of all 16 entries (index 0 = R mod n, so zero
  /// windows are not skipped). The exponent's bit length is the only
  /// exponent-dependent quantity in the trip count. The table and the
  /// accumulator are scrubbed before returning.
  BigInt pow(const BigInt& base, const BigInt& e) const;

  /// base^e where base is in Montgomery form; result in Montgomery form.
  /// Same schedule as pow().
  BigInt pow_mont(const BigInt& base_mont, const BigInt& e) const;

  // --- limb-level API (allocation-free) -----------------------------------

  /// Montgomery product a*b*R^{-1} mod n on k-limb little-endian
  /// arrays. `out` may alias `a` and/or `b`; a == b (same pointer) lets
  /// the 16-limb kernel take its squaring path. Allocation-free for
  /// moduli up to 4096 bits (a stack scratch; larger moduli fall back to
  /// heap).
  void mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (a + b) mod n on reduced k-limb operands; `out` may alias.
  void add_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (a - b) mod n on reduced k-limb operands; `out` may alias.
  void sub_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (-a) mod n on a reduced k-limb operand; `out` may alias `a`.
  void neg_limbs(const std::uint64_t* a, std::uint64_t* out) const;

  /// Zero-pads the magnitude of `a` to exactly k limbs. Requires
  /// 0 <= a < R (i.e. at most k limbs).
  void pad_limbs(const BigInt& a, std::uint64_t* out) const;

  /// BigInt from a k-limb little-endian array.
  BigInt bigint_from_limbs(const std::uint64_t* a) const;

  /// Montgomery form a*R mod n of an ordinary residue 0 <= a < n,
  /// written into k limbs (`out` must hold k limbs).
  void to_mont_limbs(const BigInt& a, std::uint64_t* out) const;

  /// R mod n zero-padded to k limbs (the Montgomery form of 1).
  const std::uint64_t* one_limbs() const { return one_padded_.data(); }

  // --- lazy-reduction API (field/lazy.h WideAcc) --------------------------

  /// Plain k x k -> 2k-limb product of Montgomery-form operands, no
  /// reduction. `out` (2k limbs) must not alias `a`/`b`. With inputs
  /// a^, b^ < n the product is < n^2 < R*n — one WideAcc budget unit.
  void mul_wide_limbs(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out) const;

  /// Montgomery reduction of a (2k+2)-limb accumulator T < 8*R*n into a
  /// fully reduced k-limb result T*R^{-1} mod n. `t` is clobbered.
  void redc_limbs(std::uint64_t* t, std::uint64_t* out) const;

  /// -n^{-1} mod 2^64 (kernel/test plumbing).
  std::uint64_t n0inv() const { return n0inv_; }

  /// -n^{-1} mod 2^512 in 8 limbs, the mul16 kernel's constant; set for
  /// k = 16 only (kernel/test plumbing).
  const std::uint64_t* nprime_limbs() const { return nprime_.data(); }

  /// The modulus as a k-limb little-endian array.
  const std::uint64_t* modulus_limbs() const { return n_.limbs().data(); }

  /// The kernel table this context dispatches through (the process-wide
  /// active() table, cached at construction).
  const kernels::Table& kernel() const { return *kt_; }

 private:
  // Pads a BigInt's limbs to exactly k entries.
  std::vector<std::uint64_t> padded(const BigInt& a) const;

  // pow/pow_mont; `ordinary` converts the base in and the result out.
  BigInt pow_impl(const BigInt& base, const BigInt& e, bool ordinary) const;

  BigInt n_;
  std::size_t k_ = 0;
  std::uint64_t n0inv_ = 0;  // -n^{-1} mod 2^64
  const kernels::Table* kt_ = nullptr;  // dispatched limb kernels
  BigInt r2_;                // R^2 mod n
  BigInt one_;               // R mod n
  std::vector<std::uint64_t> one_padded_;  // R mod n, k limbs
  std::vector<std::uint64_t> r2_padded_;   // R^2 mod n, k limbs
  // Last: keeps the fields the 4/8-limb field multiply reads together.
  std::array<std::uint64_t, 8> nprime_{};  // -n^{-1} mod 2^512 (k = 16)
};

}  // namespace medcrypt::bigint
