#include "field/safegcd.h"

#include <algorithm>

#include "common/error.h"

namespace medcrypt::field {

namespace {

using u64 = std::uint64_t;
using i64 = std::int64_t;
using i128 = __int128;

constexpr u64 kM62 = ~u64{0} >> 2;

// f, g, d, e for a 4096-bit modulus: 4 × (⌊4096/62⌋ + 1) limbs.
constexpr std::size_t kStackLimbs = 4 * 67;

// Hides a mask from the optimizer so the select arithmetic below is not
// turned back into a branch on its value.
inline u64 opaque(u64 x) {
  __asm__("" : "+r"(x));
  return x;
}

// The transition matrix of one batch, scaled by 2^62:
// [f', g'] = [[u, v], [q, r]]·[f, g] / 2^62. |u| + |v| and |q| + |r| stay
// at most 2^62, so every entry fits an int64.
struct Trans {
  i64 u, v, q, r;
};

// 62 divsteps on the low 62 bits of f and g. Each step computes
//   δ > 0 and g odd:  (δ, f, g) -> (1 - δ, g, (g - f)/2)
//   otherwise:        (δ, f, g) -> (1 + δ, f, (g + (g mod 2)·f)/2)
// by masking both outcomes; u, v, q, r track f·2^i = u·f0 + v·g0 and
// g·2^i = q·f0 + r·g0 after step i. Returns the new δ.
i64 divsteps_62(i64 delta, u64 f, u64 g, Trans& t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  for (std::size_t i = 0; i < SafeGcd::kBatch; ++i) {
    // c1: all ones iff δ > 0; c2: all ones iff g is odd.
    const u64 c1 = opaque(static_cast<u64>((-delta) >> 63));
    const u64 c2 = opaque(u64{0} - (g & 1));
    // g += ±f when g is odd (minus when δ > 0), likewise q, r.
    const u64 x = (f ^ c1) - c1;
    const u64 y = (u ^ c1) - c1;
    const u64 z = (v ^ c1) - c1;
    g += x & c2;
    q += y & c2;
    r += z & c2;
    // On a swap, f takes the old g (f + (g - f)) and δ becomes -δ.
    const u64 swap = c1 & c2;
    const i64 swap_s = static_cast<i64>(swap);
    delta = ((delta ^ swap_s) - swap_s) + 1;
    f += g & swap;
    u += q & swap;
    v += r & swap;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = Trans{static_cast<i64>(u), static_cast<i64>(v), static_cast<i64>(q),
            static_cast<i64>(r)};
  return delta;
}

// [f, g] <- t·[f, g] / 2^62. The low 62 bits of both products are zero
// by construction of t, so the shift is exact.
void update_fg(i64* f, i64* g, std::size_t n, const Trans& t) {
  i128 cf = static_cast<i128>(t.u) * f[0] + static_cast<i128>(t.v) * g[0];
  i128 cg = static_cast<i128>(t.q) * f[0] + static_cast<i128>(t.r) * g[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cf += static_cast<i128>(t.u) * f[i] + static_cast<i128>(t.v) * g[i];
    cg += static_cast<i128>(t.q) * f[i] + static_cast<i128>(t.r) * g[i];
    f[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kM62);
    g[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f[n - 1] = static_cast<i64>(cf);
  g[n - 1] = static_cast<i64>(cg);
}

// [d, e] <- (t·[d, e] + p·[md, me]) / 2^62 with md, me chosen so the low
// 62 bits vanish. Starting from d, e in (-2p, p), adding u (resp. q)
// when d < 0 and v (resp. r) when e < 0 keeps the results in (-2p, p).
void update_de(i64* d, i64* e, std::size_t n, const Trans& t, const i64* p,
               u64 p_inv62) {
  const i64 sd = d[n - 1] >> 63;
  const i64 se = e[n - 1] >> 63;
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d[0] + static_cast<i128>(t.v) * e[0];
  i128 ce = static_cast<i128>(t.q) * d[0] + static_cast<i128>(t.r) * e[0];
  md -= static_cast<i64>(
      (p_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kM62);
  me -= static_cast<i64>(
      (p_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kM62);
  cd += static_cast<i128>(p[0]) * md;
  ce += static_cast<i128>(p[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < n; ++i) {
    cd += static_cast<i128>(t.u) * d[i] + static_cast<i128>(t.v) * e[i] +
          static_cast<i128>(p[i]) * md;
    ce += static_cast<i128>(t.q) * d[i] + static_cast<i128>(t.r) * e[i] +
          static_cast<i128>(p[i]) * me;
    d[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kM62);
    e[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d[n - 1] = static_cast<i64>(cd);
  e[n - 1] = static_cast<i64>(ce);
}

// Carries every limb but the top into [0, 2^62).
void propagate(i64* r, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    r[i + 1] += r[i] >> 62;
    r[i] &= static_cast<i64>(kM62);
  }
}

// r in (-2p, p) -> r·(-1 if `negate` is all ones) mod p, in [0, p).
void normalize(i64* r, std::size_t n, i64 negate, const i64* p) {
  i64 add = r[n - 1] >> 63;  // r < 0: add p, giving (-p, p)
  for (std::size_t i = 0; i < n; ++i) r[i] += p[i] & add;
  for (std::size_t i = 0; i < n; ++i) r[i] = (r[i] ^ negate) - negate;
  propagate(r, n);
  add = r[n - 1] >> 63;  // still negative: add p once more, giving [0, p)
  for (std::size_t i = 0; i < n; ++i) r[i] += p[i] & add;
  propagate(r, n);
}

// k 64-bit limbs -> n signed 62-bit limbs of a non-negative value.
void to_signed62(const u64* a, std::size_t k, i64* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit = 62 * i;
    const std::size_t w = bit / 64;
    const unsigned s = bit % 64;
    u64 v = w < k ? a[w] >> s : 0;
    if (s > 2 && w + 1 < k) v |= a[w + 1] << (64 - s);
    out[i] = static_cast<i64>(v & kM62);
  }
}

// n signed 62-bit limbs of a value in [0, 2^(64k)) -> k 64-bit limbs.
void from_signed62(const i64* in, std::size_t n, u64* out, std::size_t k) {
  unsigned __int128 acc = 0;
  unsigned bits = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= static_cast<unsigned __int128>(static_cast<u64>(in[i])) << bits;
    bits += 62;
    if (bits >= 64) {
      if (j < k) out[j++] = static_cast<u64>(acc);
      acc >>= 64;
      bits -= 64;
    }
  }
  while (j < k) {
    out[j++] = static_cast<u64>(acc);
    acc >>= 64;
  }
}

void scrub(void* p, std::size_t bytes) {
  volatile unsigned char* vp = static_cast<unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) vp[i] = 0;
}

}  // namespace

SafeGcd::SafeGcd(const bigint::BigInt& p) {
  if (p <= bigint::BigInt(1) || !p.is_odd()) {
    throw InvalidArgument("SafeGcd: modulus must be odd and > 1");
  }
  const std::size_t b = p.bit_length();
  k_ = p.limbs().size();
  n_ = b / 62 + 1;
  // Theorem 11.2: ⌈(49b + 80)/17⌉ divsteps bring g to 0 whenever
  // f² + 4g² ≤ 5·2^(2b), which f = p and 0 <= g < p satisfy. (For
  // b ≥ 46 the theorem allows (49b + 57)/17; one formula keeps it
  // simple and never costs more than one extra batch.)
  const std::size_t steps = (49 * b + 80 + 16) / 17;
  batches_ = (steps + kBatch - 1) / kBatch;
  p62_.resize(n_);
  to_signed62(p.limbs().data(), k_, p62_.data(), n_);
  // p^-1 mod 2^64 by Newton iteration: p·p ≡ 1 (mod 8) seeds 3 bits and
  // each step doubles them.
  const u64 p0 = p.limbs()[0];
  u64 inv = p0;
  for (int i = 0; i < 5; ++i) inv *= 2 - p0 * inv;
  p_inv62_ = inv & kM62;
}

void SafeGcd::invert(const u64* a, u64* out) const {
  const std::size_t n = n_;
  i64 stack[kStackLimbs];
  std::vector<i64> heap;
  i64* f = stack;
  if (4 * n > kStackLimbs) {
    heap.resize(4 * n);
    f = heap.data();
  }
  i64* g = f + n;
  i64* d = g + n;
  i64* e = d + n;

  std::copy_n(p62_.data(), n, f);
  to_signed62(a, k_, g, n);
  std::fill_n(d, 2 * n, i64{0});  // d = 0, e = 1
  e[0] = 1;

  i64 delta = 1;
  Trans t{};
  for (std::size_t b = 0; b < batches_; ++b) {
    delta = divsteps_62(delta, static_cast<u64>(f[0]), static_cast<u64>(g[0]),
                        t);
    update_de(d, e, n, t, p62_.data(), p_inv62_);
    update_fg(f, g, n, t);
  }
  // g = 0 and f = ±1: a^-1 = d·sign(f).
  normalize(d, n, f[n - 1] >> 63, p62_.data());
  from_signed62(d, n, out, k_);

  scrub(f, 4 * n * sizeof(i64));
  scrub(&t, sizeof(t));
}

}  // namespace medcrypt::field
