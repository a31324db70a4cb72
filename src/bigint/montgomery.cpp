#include "bigint/montgomery.h"

#include <algorithm>
#include <vector>

#include "bigint/kernels/cios_portable.h"
#include "common/error.h"

namespace medcrypt::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using kernels::cios_fixed;

namespace {
// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 x = n;  // correct mod 2^3
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;  // doubles precision each step
  return ~x + 1;  // -(n^{-1})
}

// -n^{-1} mod 2^512 from y = -n^{-1} mod 2^64 by Newton lifting:
// y <- y*(2 + n*y) doubles the precision of y, 64 -> 128 -> 256 -> 512.
void neg_inv512(const kernels::Table& kt, const u64* n, u64 n0inv, u64* y) {
  std::fill_n(y, 8, u64{0});
  y[0] = n0inv;
  u64 w[16];
  u64 t[8];
  for (int step = 0; step < 3; ++step) {
    kt.mul8_wide(n, y, w);  // n mod 2^512 times y
    u64 carry = 2;
    for (std::size_t i = 0; i < 8; ++i) {
      const u128 s = static_cast<u128>(w[i]) + carry;
      t[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    kt.mul8_wide(y, t, w);
    std::copy_n(w, 8, y);
  }
}

constexpr unsigned kWindow = 4;
constexpr std::size_t kTableSize = std::size_t{1} << kWindow;
// pow's limb buffer: the window table, the selected entry, the
// accumulator. Up to RSA-1024's 16 limbs it lives on the stack.
constexpr std::size_t kPowSlots = kTableSize + 2;
constexpr std::size_t kPowStackLimbs = 16;

// out = table[idx] (k limbs) by a masked scan of every entry.
void select_entry(const u64* table, u64 idx, std::size_t k, u64* out) {
  std::fill_n(out, k, u64{0});
  for (std::size_t i = 0; i < kTableSize; ++i) {
    const u64 d = i ^ idx;
    const u64 mask = ((d | (u64{0} - d)) >> 63) - 1;  // ~0 iff i == idx
    for (std::size_t j = 0; j < k; ++j) out[j] |= table[i * k + j] & mask;
  }
}

void wipe_limbs(u64* p, std::size_t len) {
  volatile u64* vp = p;
  for (std::size_t i = 0; i < len; ++i) vp[i] = 0;
}
}  // namespace

Montgomery::Montgomery(BigInt n) : n_(std::move(n)) {
  if (n_ <= BigInt(std::uint64_t{1}) || !n_.is_odd()) {
    throw InvalidArgument("Montgomery: modulus must be odd and > 1");
  }
  k_ = n_.limbs().size();
  n0inv_ = neg_inv64(n_.limbs()[0]);
  kt_ = &kernels::active();
  if (k_ == 16) neg_inv512(*kt_, n_.limbs_.data(), n0inv_, nprime_.data());
  // R = 2^(64k); R mod n and R^2 mod n via generic reduction (setup only).
  const BigInt r = BigInt(std::uint64_t{1}) << (64 * k_);
  one_ = r % n_;
  r2_ = (one_ * one_) % n_;
  one_padded_ = padded(one_);
  r2_padded_ = padded(r2_);
}

std::vector<u64> Montgomery::padded(const BigInt& a) const {
  std::vector<u64> out = a.limbs_;
  out.resize(k_, 0);
  return out;
}

void Montgomery::pad_limbs(const BigInt& a, u64* out) const {
  const std::size_t have = a.limbs_.size();
  if (a.negative_ || have > k_) {
    throw InvalidArgument("Montgomery::pad_limbs: value out of range");
  }
  std::copy_n(a.limbs_.data(), have, out);
  std::fill_n(out + have, k_ - have, u64{0});
}

BigInt Montgomery::bigint_from_limbs(const u64* a) const {
  BigInt r;
  r.limbs_.assign(a, a + k_);
  r.trim();
  return r;
}

void Montgomery::to_mont_limbs(const BigInt& a, u64* out) const {
  pad_limbs(a, out);
  mul_limbs(out, r2_padded_.data(), out);
}

void Montgomery::mul_limbs(const u64* a, const u64* b, u64* out) const {
  // The widths the named parameter sets lean on hardest (mid128 = 4,
  // sec80 = 8) and RSA-1024's 16 limbs go through the dispatched kernel
  // table; the remaining fixed widths (toy64 = 2, sweep384 = 6) use the
  // portable unrolled template directly.
  {
    const u64* n = n_.limbs_.data();
    switch (k_) {
      case 2: return cios_fixed<2>(a, b, n, n0inv_, out);
      case 4: return kt_->mul4(a, b, n, n0inv_, out);
      case 6: return cios_fixed<6>(a, b, n, n0inv_, out);
      case 8: return kt_->mul8(a, b, n, n0inv_, out);
      case 16: return kt_->mul16(a, b, n, nprime_.data(), out);
      default: break;
    }
  }
  // CIOS: t has k+2 limbs. The scratch lives on the stack so the field
  // hot path never allocates; only absurdly wide moduli (> 4096 bits,
  // none in the tree) take the heap fallback.
  constexpr std::size_t kStackLimbs = 66;
  u64 stack_t[kStackLimbs];
  std::vector<u64> heap_t;
  u64* t = stack_t;
  if (k_ + 2 > kStackLimbs) {
    heap_t.resize(k_ + 2);
    t = heap_t.data();
  }
  std::fill_n(t, k_ + 2, u64{0});

  const u64* n = n_.limbs_.data();
  for (std::size_t i = 0; i < k_; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<u64>(s);
    t[k_ + 1] = static_cast<u64>(s >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n0inv_;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<u64>(s);
    t[k_] = t[k_ + 1] + static_cast<u64>(s >> 64);
    t[k_ + 1] = 0;
  }
  // Conditional subtraction: t may be in [0, 2n).
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < k_; ++i) out[i] = t[i];
  }
  kernels::scrub_scratch(t, k_ + 2);
}

void Montgomery::mul_wide_limbs(const u64* a, const u64* b, u64* out) const {
  switch (k_) {
    case 4: return kt_->mul4_wide(a, b, out);
    case 8: return kt_->mul8_wide(a, b, out);
    default: return kernels::mul_wide_generic(a, b, k_, out);
  }
}

void Montgomery::redc_limbs(u64* t, u64* out) const {
  const u64* n = n_.limbs_.data();
  switch (k_) {
    case 4: return kt_->redc4(t, n, n0inv_, out);
    case 8: return kt_->redc8(t, n, n0inv_, out);
    default: return kernels::redc_generic(t, n, n0inv_, k_, out);
  }
}

void Montgomery::add_limbs(const u64* a, const u64* b, u64* out) const {
  kt_->add(a, b, n_.limbs_.data(), k_, out);
}

void Montgomery::sub_limbs(const u64* a, const u64* b, u64* out) const {
  kt_->sub(a, b, n_.limbs_.data(), k_, out);
}

void Montgomery::neg_limbs(const u64* a, u64* out) const {
  kt_->neg(a, n_.limbs_.data(), k_, out);
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  const std::vector<u64> pa = padded(a);
  const std::vector<u64> pb = padded(b);
  std::vector<u64> out(k_, 0);
  mul_limbs(pa.data(), pb.data(), out.data());
  BigInt r;
  r.limbs_ = std::move(out);
  r.trim();
  return r;
}

BigInt Montgomery::to_mont(const BigInt& a) const { return mul(a, r2_); }

BigInt Montgomery::from_mont(const BigInt& a) const {
  return mul(a, BigInt(std::uint64_t{1}));
}

BigInt Montgomery::pow_mont(const BigInt& base_mont, const BigInt& e) const {
  return pow_impl(base_mont, e, /*ordinary=*/false);
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& e) const {
  return pow_impl(base, e, /*ordinary=*/true);
}

BigInt Montgomery::pow_impl(const BigInt& base, const BigInt& e,
                            bool ordinary) const {
  if (e.is_negative()) throw InvalidArgument("Montgomery::pow: negative exponent");
  const std::size_t k = k_;
  u64 stack_buf[kPowSlots * kPowStackLimbs];
  std::vector<u64> heap_buf;
  u64* table = stack_buf;
  if (k > kPowStackLimbs) {
    heap_buf.resize(kPowSlots * k);
    table = heap_buf.data();
  }
  u64* sel = table + kTableSize * k;
  u64* acc = sel + k;

  // table[i] = base^i in Montgomery form; even entries square their half.
  std::copy_n(one_padded_.data(), k, table);
  pad_limbs(base, table + k);
  if (ordinary) mul_limbs(table + k, r2_padded_.data(), table + k);
  for (std::size_t i = 2; i < kTableSize; ++i) {
    const u64* half = table + (i / 2) * k;
    if (i % 2 == 0) {
      mul_limbs(half, half, table + i * k);
    } else {
      mul_limbs(table + (i - 1) * k, table + k, table + i * k);
    }
  }

  // Windows never straddle a limb (kWindow divides 64).
  const std::vector<u64>& e_limbs = e.limbs_;
  const std::size_t windows = (e.bit_length() + kWindow - 1) / kWindow;
  const auto window = [&](std::size_t w) -> u64 {
    const std::size_t bit = w * kWindow;
    return (e_limbs[bit / 64] >> (bit % 64)) & (kTableSize - 1);
  };
  // The top window seeds the accumulator (R mod n when e = 0).
  const std::size_t top = windows == 0 ? 0 : windows - 1;
  select_entry(table, windows == 0 ? 0 : window(top), k, acc);
  for (std::size_t w = top; w-- > 0;) {
    for (unsigned i = 0; i < kWindow; ++i) mul_limbs(acc, acc, acc);
    select_entry(table, window(w), k, sel);
    mul_limbs(acc, sel, acc);
  }
  if (ordinary) {  // from_mont: multiply by plain 1
    std::fill_n(sel, k, u64{0});
    sel[0] = 1;
    mul_limbs(acc, sel, acc);
  }
  BigInt result = bigint_from_limbs(acc);
  // The table holds powers of the base, which is secret-bearing for
  // RSA and the mRSA halves; scrub it and the accumulator.
  wipe_limbs(table, kPowSlots * k);
  return result;
}

}  // namespace medcrypt::bigint
