// Constant-time modular inversion by Bernstein–Yang divsteps ("safegcd",
// "Fast constant-time gcd computation and modular inversion", TCHES 2019).
//
// The inverter runs the paper's divstep on (δ, f, g) = (1, p, a) while
// tracking d, e with f ≡ d·a and g ≡ e·a (mod p). Divsteps run in
// batches of 62: each batch computes a 2x2 transition matrix from the
// low 62 bits of f and g alone, then applies it to the full-width f, g
// (exact division by 2^62) and to d, e (made divisible by adding a
// multiple of p). Once g reaches 0, f = ±gcd = ±1 and ±d is a^-1.
//
// Constant time: the divstep count is the paper's Theorem 11.2 bound
// ⌈(49b + 80)/17⌉ for a b-bit modulus, rounded up to whole batches — a
// function of the public bit length only. Every step computes both
// outcomes and combines them with masks; no branch, shift amount or
// memory index depends on the operand. The same code serves every limb
// count: values live in n = ⌊b/62⌋ + 1 signed 62-bit limbs (the top
// limb carries the sign), and the multiply-accumulate passes run over
// all n limbs with 128-bit carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace medcrypt::field {

/// Inversion context for one odd modulus p; immutable after
/// construction.
class SafeGcd {
 public:
  /// Precomputes p in signed 62-bit limbs, p^-1 mod 2^62 and the batch
  /// count. Throws InvalidArgument unless p is odd and > 1.
  explicit SafeGcd(const bigint::BigInt& p);

  /// out = a^-1 mod p for an ordinary residue 0 <= a < p given as k
  /// little-endian 64-bit limbs (k = the modulus' limb count); a = 0
  /// yields 0, and a result for an a sharing a factor with p is
  /// meaningless. `out` may alias `a`. No allocation for moduli up to
  /// 4096 bits (the scratch lives on the stack and is scrubbed before
  /// returning); wider moduli take a heap scratch.
  void invert(const std::uint64_t* a, std::uint64_t* out) const;

  /// Divsteps run per inversion: the batch count times 62.
  std::size_t divsteps() const { return batches_ * kBatch; }

  static constexpr std::size_t kBatch = 62;

 private:
  std::size_t k_;        // 64-bit limbs of p
  std::size_t n_;        // signed 62-bit limbs of f, g, d, e
  std::size_t batches_;  // 62-divstep batches per inversion
  std::vector<std::int64_t> p62_;  // p in signed 62-bit limbs
  std::uint64_t p_inv62_;          // p^-1 mod 2^62
};

}  // namespace medcrypt::field
