// Portable kernel tier: plain C++ with u128 carries. This is the
// reference implementation every accelerated tier is fuzzed against,
// and the fallback installed when the CPU (or MEDCRYPT_KERNEL) rules
// the others out.
#include <cstddef>
#include <cstdint>

#include "bigint/kernels/cios_portable.h"
#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint::kernels {

using u128 = unsigned __int128;

namespace {

void mul4_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* out) {
  cios_fixed<4>(a, b, n, n0inv, out);
}

void mul8_portable(const u64* a, const u64* b, const u64* n, u64 n0inv,
                   u64* out) {
  cios_fixed<8>(a, b, n, n0inv, out);
}

void mul16_portable(const u64* a, const u64* b, const u64* n,
                    const u64* nprime, u64* out) {
  cios_fixed<16>(a, b, n, nprime[0], out);
}

template <std::size_t K>
void mul_wide_fixed(const u64* a, const u64* b, u64* out) {
  for (std::size_t i = 0; i < 2 * K; ++i) out[i] = 0;
  for (std::size_t i = 0; i < K; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + K] = carry;
  }
}

void mul4_wide_portable(const u64* a, const u64* b, u64* out) {
  mul_wide_fixed<4>(a, b, out);
}

void mul8_wide_portable(const u64* a, const u64* b, u64* out) {
  mul_wide_fixed<8>(a, b, out);
}

// Montgomery reduction of a (2k+2)-limb accumulator. The WideAcc
// magnitude contract (field/lazy.h) bounds T < 8·R·n, so after the k
// reduction rounds the shifted value is < 9n and at most eight final
// subtractions bring it into [0, n). The per-round carry sweep runs to
// the top limb unconditionally (no data-dependent early exit).
template <std::size_t K>
void redc_fixed(u64* t, const u64* n, u64 n0inv, u64* out) {
  for (std::size_t i = 0; i < K; ++i) {
    const u64 m = t[i] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      const u128 cur = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = i + K; idx < 2 * K + 2; ++idx) {
      const u128 s = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  // Value is now t[K .. 2K+1]; t[2K+1] is zero and t[2K] < 8 by the
  // magnitude contract. Subtract n until reduced (≤ 8 iterations) —
  // bounded by that contract, not by the operand values.
  u64 high = t[2 * K];
  // medlint: allow(ct-variable-time)
  for (;;) {
    bool ge = high != 0;
    if (!ge) {
      ge = true;
      for (std::size_t i = K; i-- > 0;) {
        if (t[K + i] != n[i]) {
          ge = t[K + i] > n[i];
          break;
        }
      }
    }
    if (!ge) break;
    u64 borrow = 0;
    for (std::size_t i = 0; i < K; ++i) {
      const u128 diff = static_cast<u128>(t[K + i]) - n[i] - borrow;
      t[K + i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    high -= borrow;
  }
  for (std::size_t i = 0; i < K; ++i) out[i] = t[K + i];
}

void redc4_portable(u64* t, const u64* n, u64 n0inv, u64* out) {
  redc_fixed<4>(t, n, n0inv, out);
}

void redc8_portable(u64* t, const u64* n, u64 n0inv, u64* out) {
  redc_fixed<8>(t, n, n0inv, out);
}

void add_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  // Reduce: the sum is in [0, 2n), possibly with a carry limb.
  bool ge = carry != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (out[i] != n[i]) {
        ge = out[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 diff = static_cast<u128>(out[i]) - n[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  }
}

void sub_portable(const u64* a, const u64* b, const u64* n, std::size_t k,
                  u64* out) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  if (borrow) {  // a < b: wrap back into range by adding n
    u64 carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 s = static_cast<u128>(out[i]) + n[i] + carry;
      out[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
}

void neg_portable(const u64* a, const u64* n, std::size_t k, u64* out) {
  u64 nonzero = 0;
  for (std::size_t i = 0; i < k; ++i) nonzero |= a[i];
  if (nonzero == 0) {
    for (std::size_t i = 0; i < k; ++i) out[i] = 0;
    return;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(n[i]) - a[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
}

}  // namespace

void mul_wide_generic(const u64* a, const u64* b, std::size_t k, u64* out) {
  for (std::size_t i = 0; i < 2 * k; ++i) out[i] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + k] = carry;
  }
}

void redc_generic(u64* t, const u64* n, u64 n0inv, std::size_t k, u64* out) {
  for (std::size_t i = 0; i < k; ++i) {
    const u64 m = t[i] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = i + k; idx < 2 * k + 2; ++idx) {
      const u128 s = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  u64 high = t[2 * k];
  // Conditional-subtract sweep, ≤ 8 iterations by the same magnitude
  // contract as the fixed-width path.  medlint: allow(ct-variable-time)
  for (;;) {
    bool ge = high != 0;
    if (!ge) {
      ge = true;
      for (std::size_t i = k; i-- > 0;) {
        if (t[k + i] != n[i]) {
          ge = t[k + i] > n[i];
          break;
        }
      }
    }
    if (!ge) break;
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 diff = static_cast<u128>(t[k + i]) - n[i] - borrow;
      t[k + i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    high -= borrow;
  }
  for (std::size_t i = 0; i < k; ++i) out[i] = t[k + i];
}

const Table& portable_table() {
  static const Table kTable = {
      mul4_portable,      mul8_portable,  mul16_portable,
      mul4_wide_portable, mul8_wide_portable, redc4_portable,
      redc8_portable,     add_portable,   sub_portable,
      neg_portable,       Kind::kPortable, "portable",
  };
  return kTable;
}

}  // namespace medcrypt::bigint::kernels
