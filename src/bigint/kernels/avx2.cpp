// AVX2 kernel tier. Carry chains are inherently serial, so the
// multiplies stay on the portable CIOS code; what AVX2 buys is the
// width-independent helpers: add/sub/neg compute BOTH candidate results
// (raw and ±n-corrected) with scalar carry chains, derive a single
// select mask from the carry/borrow verdict, and commit with a vector
// blend — no branch on the comparison, same outputs bit for bit.
//
// Only the blend helpers carry the avx2 target attribute; the file is
// compiled without -mavx2 so nothing here executes vector instructions
// unless dispatch (or a cpu_supports-gated caller) picked this tier.
#include <cstddef>
#include <cstdint>

#include "bigint/kernels/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace medcrypt::bigint::kernels {

#if defined(__x86_64__) && defined(__GNUC__)

using u128 = unsigned __int128;

namespace {

// Widest modulus served from stack temporaries; beyond it (no named
// parameter set comes close) we defer to the portable tier.
constexpr std::size_t kMaxLimbs = 64;

// out[i] = mask ? take[i] : keep[i]; mask is 0 or ~0.
__attribute__((target("avx2"))) void blend_into(const u64* take,
                                                const u64* keep, u64 mask,
                                                std::size_t k, u64* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(take + i));
    const __m256i kp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keep + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_blendv_epi8(kp, t, vmask));
  }
  for (; i < k; ++i) out[i] = (take[i] & mask) | (keep[i] & ~mask);
}

// out[i] = src[i] & mask.
__attribute__((target("avx2"))) void mask_into(const u64* src, u64 mask,
                                               std::size_t k, u64* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(s, vmask));
  }
  for (; i < k; ++i) out[i] = src[i] & mask;
}

void add_avx2(const u64* a, const u64* b, const u64* n, std::size_t k,
              u64* out) {
  if (k > kMaxLimbs) return portable_table().add(a, b, n, k, out);
  u64 sum[kMaxLimbs];
  u64 diff[kMaxLimbs];
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    sum[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(sum[i]) - n[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  // sum >= n  iff  the k-limb sum carried out or the subtraction of n
  // did not borrow — exactly the portable lexicographic test.
  const u64 mask = u64{0} - (carry | (borrow ^ u64{1}));
  blend_into(diff, sum, mask, k, out);
  scrub_scratch(sum, k);
  scrub_scratch(diff, k);
}

void sub_avx2(const u64* a, const u64* b, const u64* n, std::size_t k,
              u64* out) {
  if (k > kMaxLimbs) return portable_table().sub(a, b, n, k, out);
  u64 diff[kMaxLimbs];
  u64 fix[kMaxLimbs];
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  u64 carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(diff[i]) + n[i] + carry;
    fix[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  const u64 mask = u64{0} - borrow;  // a < b: take the +n corrected value
  blend_into(fix, diff, mask, k, out);
  scrub_scratch(diff, k);
  scrub_scratch(fix, k);
}

void neg_avx2(const u64* a, const u64* n, std::size_t k, u64* out) {
  if (k > kMaxLimbs) return portable_table().neg(a, n, k, out);
  u64 res[kMaxLimbs];
  u64 nonzero = 0;
  for (std::size_t i = 0; i < k; ++i) nonzero |= a[i];
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(n[i]) - a[i] - borrow;
    res[i] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  const u64 mask = u64{0} - static_cast<u64>(nonzero != 0);
  mask_into(res, mask, k, out);  // a == 0 maps to 0, not n
  scrub_scratch(res, k);
}

}  // namespace

const Table& avx2_table() {
  static const Table kTable = {
      portable_table().mul4,      portable_table().mul8,
      portable_table().mul16,     portable_table().mul4_wide,
      portable_table().mul8_wide, portable_table().redc4,
      portable_table().redc8,     add_avx2,
      sub_avx2,                   neg_avx2,
      Kind::kAvx2,                "avx2",
  };
  return kTable;
}

#else  // !__x86_64__

const Table& avx2_table() { return portable_table(); }

#endif

}  // namespace medcrypt::bigint::kernels
