// Prime field F_p.
//
// PrimeField is an immutable context (modulus + Montgomery state +
// cached exponents), interned by modulus in a process-wide registry
// that never frees it; Fp is a value-semantic element kept permanently
// in Montgomery form, stored as exactly k padded limbs (LimbStore) so
// every field operation runs at the Montgomery limb level without heap
// allocation. Elements remember their field by plain pointer: interning
// makes the pointer compare detect mixed-field operations, and the
// registry's lifetime means it never dangles. Copying, moving or
// destroying an element therefore touches no reference count, so
// threads sharing one field never contend on a shared cache line.
//
// The compound operators (+=, -=, *=) and the *_inplace methods mutate
// in place and are the hot-path spelling: the curve and pairing layers
// thread them through so a full Tate pairing allocates nothing.
#pragma once

#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/bytes.h"
#include "common/random_source.h"
#include "field/limb_store.h"
#include "field/safegcd.h"

namespace medcrypt::field {

using bigint::BigInt;

class Fp;

/// Immutable prime-field context, one per modulus for the whole process.
class PrimeField {
 public:
  /// The context for odd prime p: built on the first call for p and
  /// returned again by every later one, never freed (so a process that
  /// builds fields from fresh primes keeps each of them). Primality is
  /// the caller's responsibility (parameter generation checks it);
  /// oddness is enforced. Thread-safe.
  static const std::shared_ptr<const PrimeField>& make(BigInt p);

  PrimeField(const PrimeField&) = delete;
  PrimeField& operator=(const PrimeField&) = delete;

  const BigInt& modulus() const { return mont_.modulus(); }

  /// Serialized size of one element (big-endian, fixed width).
  std::size_t byte_size() const { return byte_size_; }

  /// Limb width of one element (the Montgomery k).
  std::size_t limb_count() const { return mont_.limbs(); }

  Fp zero() const;
  Fp one() const;

  /// Element from an arbitrary integer (reduced mod p).
  Fp from_bigint(const BigInt& v) const;

  /// Element from a small unsigned constant.
  Fp from_u64(std::uint64_t v) const;

  /// Parses a fixed-width big-endian element; throws if >= p or wrong size.
  Fp from_bytes(BytesView bytes) const;

  /// Uniformly random element.
  Fp random(RandomSource& rng) const;

  const bigint::Montgomery& mont() const { return mont_; }

  /// (p-1)/2, the Euler-criterion exponent (cached; Fp::is_square).
  const BigInt& legendre_exponent() const { return legendre_exp_; }

  /// (p+1)/4 when p ≡ 3 (mod 4), zero otherwise (cached; Fp::sqrt).
  const BigInt& sqrt_exponent() const { return sqrt_exp_; }

  /// The constant-time inverter for p (Fp::inverse).
  const SafeGcd& safegcd() const { return safegcd_; }

  /// R^3 mod p zero-padded to k limbs: one Montgomery multiply by it
  /// turns the plain inverse (aR)^-1 into the Montgomery form a^-1·R.
  const std::uint64_t* r3_limbs() const { return r3_.data(); }

 private:
  friend class Fp;
  explicit PrimeField(BigInt p);

  // The registry's owning handle for this context (set by make).
  const std::shared_ptr<const PrimeField>* handle_ = nullptr;
  bigint::Montgomery mont_;
  std::size_t byte_size_;
  BigInt legendre_exp_;  // (p-1)/2
  BigInt sqrt_exp_;      // (p+1)/4 for p ≡ 3 (mod 4), else zero
  SafeGcd safegcd_;
  std::vector<std::uint64_t> r3_;  // R^3 mod p, k limbs
};

/// Element of a prime field, internally in Montgomery form.
class Fp {
 public:
  /// Default-constructed elements belong to no field; only assignment and
  /// destruction are valid on them.
  Fp() = default;

  /// The element's field; empty for a default-constructed element.
  const std::shared_ptr<const PrimeField>& field() const {
    return field_ != nullptr ? *field_->handle_ : kNoField;
  }

  bool is_zero() const { return store_.is_zero(); }
  bool is_one() const;

  Fp operator+(const Fp& o) const;
  Fp operator-(const Fp& o) const;
  Fp operator*(const Fp& o) const;
  Fp operator-() const;
  Fp& operator+=(const Fp& o);
  Fp& operator-=(const Fp& o);
  Fp& operator*=(const Fp& o);

  bool operator==(const Fp& o) const;

  Fp square() const;

  /// Doubles (cheaper than generic add for EC formulas readability only).
  Fp dbl() const;

  // In-place variants of square/double/negate for the hot path.
  void square_inplace();
  void dbl_inplace();
  void negate_inplace();

  /// Multiplicative inverse; throws InvalidArgument on zero. Constant
  /// time in the element: a fixed-count Bernstein–Yang safegcd
  /// (field/safegcd.h) on the Montgomery limbs aR gives (aR)^-1, and
  /// one Montgomery multiply by R^3 mod p returns a^-1·R. Bit-identical
  /// to pow(p - 2); allocation-free for the named parameter sets.
  Fp inverse() const;

  /// this^e for e >= 0.
  Fp pow(const BigInt& e) const;

  /// Euler criterion; zero counts as a square.
  bool is_square() const;

  /// A square root (the caller picks the sign via canonical_sqrt or
  /// negation); throws InvalidArgument if not a square.
  /// Uses x^((p+1)/4) when p ≡ 3 (mod 4), Tonelli–Shanks otherwise.
  Fp sqrt() const;

  /// Canonical integer representative in [0, p).
  BigInt to_bigint() const;

  /// Fixed-width big-endian serialization.
  Bytes to_bytes() const;

  /// "Sign" bit for point compression: parity of the canonical
  /// representative.
  bool parity() const { return to_bigint().is_odd(); }

  /// Scrubs the element and detaches it from its field (the element
  /// becomes default-constructed). Called by secret holders' destructors.
  void wipe() {
    store_.wipe();
    field_ = nullptr;
  }

 private:
  friend class PrimeField;
  // Lazy-reduction accumulators (field/lazy.h) read the raw limb store
  // and write reduced results back without round-tripping through the
  // public op chain.
  friend class WideAcc;
  friend class WideProduct;
  Fp(const PrimeField* field, LimbStore store)
      : field_(field), store_(std::move(store)) {}

  void check_same_field(const Fp& o) const;
  void check_bound(const char* op) const;

  static const std::shared_ptr<const PrimeField> kNoField;

  const PrimeField* field_ = nullptr;  // interned: never freed
  LimbStore store_;
};

}  // namespace medcrypt::field
