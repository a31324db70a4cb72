// The GDH signature of Boneh, Lynn and Shacham [6] (paper §5).
//
// Over a Gap-Diffie-Hellman group (CDH hard, DDH easy via the pairing):
//   Keygen   x ∈ Z_q, R = xP
//   Sign     σ = x·h(M) with h : {0,1}* -> G1
//   Verify   (P, R, h(M), σ) is a DH tuple  ⇔  ê(P, σ) = ê(R, h(M))
//
// Signatures are single compressed G1 points — the "160-bit signature"
// (and the 160-bit SEM token of the mediated variant) the paper contrasts
// with 1024-bit mRSA transfers.
#pragma once

#include "ec/point.h"
#include "pairing/param_gen.h"

namespace medcrypt::gdh {

using bigint::BigInt;
using ec::Point;

/// GDH signature key pair. The secret scalar is wiped on destruction.
struct KeyPair {
  KeyPair() = default;
  KeyPair(BigInt secret_, Point pub_)
      : secret(std::move(secret_)), pub(std::move(pub_)) {}
  KeyPair(const KeyPair&) = default;
  KeyPair(KeyPair&&) = default;
  KeyPair& operator=(const KeyPair&) = default;
  KeyPair& operator=(KeyPair&&) = default;
  ~KeyPair() { secret.wipe(); }

  BigInt secret;  // x
  Point pub;      // R = xP
};

/// Samples a key pair over `group`.
KeyPair keygen(const pairing::ParamSet& group, RandomSource& rng);

/// The message hash h : {0,1}* -> G1 (full-domain hash onto the subgroup).
Point hash_message(const pairing::ParamSet& group, BytesView message);

/// Signs: σ = x·h(M).
Point sign(const pairing::ParamSet& group, const BigInt& secret,
           BytesView message);

/// Verifies via the DDH check ê(P, σ) = ê(R, h(M)): hashes the message
/// and runs verify_hashed.
bool verify(const pairing::ParamSet& group, const Point& pub,
            BytesView message, const Point& signature);

/// The same check for a caller that already holds h = h(M) (the §5
/// user, who hashed M for its own half): rejects σ at infinity or
/// outside the order-q subgroup, then tests ê(P, σ) = ê(R, h). `h` is
/// trusted to be hash_message's output; third parties verify with the
/// message.
bool verify_hashed(const pairing::ParamSet& group, const Point& pub,
                   const Point& h, const Point& signature);

/// Additive 2-of-2 key split for the mediated variant (§5):
/// x = x_user + x_sem (mod q). Returns {x_user, x_sem}.
std::pair<BigInt, BigInt> split_key(const BigInt& secret, const BigInt& q,
                                    RandomSource& rng);

}  // namespace medcrypt::gdh
