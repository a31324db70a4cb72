// Portable fixed-K CIOS Montgomery multiply — the historic
// montgomery.cpp kernel, hoisted so the portable dispatch tier (K = 4,
// 8, 16) and Montgomery's non-dispatched widths (2 and 6 limbs) share
// one definition. The loops fully unroll at compile time and the scratch
// limbs stay in registers, which is worth ~2x over the runtime-k loop.
//
// Behavioral contract (the accelerated tiers replicate it bit for bit):
// inputs are k-limb little-endian arrays; after the interleaved
// reduction the (K+1)-limb intermediate gets exactly ONE conditional
// subtraction of n, so reduced inputs (< n) give reduced outputs, while
// out-of-range inputs (up to R-1) give the same partially-reduced
// residue the historic code produced.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint::kernels {

template <std::size_t K>
void cios_fixed(const u64* a, const u64* b, const u64* n, u64 n0inv,
                u64* out) {
  using u128 = unsigned __int128;
  u64 t[K + 2] = {};
  for (std::size_t i = 0; i < K; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[K]) + carry;
    t[K] = static_cast<u64>(s);
    t[K + 1] = static_cast<u64>(s >> 64);

    const u64 m = t[0] * n0inv;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[K]) + carry;
    t[K - 1] = static_cast<u64>(s);
    t[K] = t[K + 1] + static_cast<u64>(s >> 64);
    t[K + 1] = 0;
  }
  bool ge = t[K] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = K; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < K; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < K; ++i) out[i] = t[i];
  }
  scrub_scratch(t, K + 2);
}

}  // namespace medcrypt::bigint::kernels
