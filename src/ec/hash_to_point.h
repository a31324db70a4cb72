// Hashing arbitrary strings onto the order-q subgroup G1 — the paper's
// random oracle H1 : {0,1}* -> G1*.
//
// Try-and-increment: derive a candidate x-coordinate from
// SHA-256(domain, counter, input), test the curve equation, take a square
// root, then clear the cofactor. The output is never the identity.
//
// Three entry points share one candidate derivation (identical outputs,
// pinned by the golden-vector test):
//   - hash_to_subgroup: the single-input reference path.
//   - hash_to_subgroup_batch: clears every accepted candidate's cofactor
//     in Jacobian form and converts the whole batch to affine with ONE
//     shared field inversion (Montgomery's trick) instead of one per
//     point. With p ≡ 3 (mod 4) both paths also fuse the Legendre test
//     into the sqrt: one exponentiation s = rhs^((p+1)/4) plus a cheap
//     s^2 == rhs check replaces the separate Euler-criterion power.
//   - hash_to_subgroup_cached: consults the process-wide identity-point
//     LRU (src/ec/identity_cache.h) before computing. The point is a
//     pure function of (curve, domain, input), so a cached entry is
//     never stale.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "ec/identity_cache.h"
#include "ec/point.h"

namespace medcrypt::ec {

/// Maps `input` to a point of order q on `curve`, domain-separated by
/// `domain`. Deterministic; output is never the point at infinity.
Point hash_to_subgroup(const std::shared_ptr<const Curve>& curve,
                       std::string_view domain, BytesView input);

/// Batch variant: hashes every input with the exact same derivation as
/// hash_to_subgroup (element-wise identical outputs) while sharing one
/// field inversion across the batch's cofactor-cleared affine
/// conversions. Worth it from two inputs up (each saved inversion is
/// ~75 multiplications of safegcd at the paper's parameters).
std::vector<Point> hash_to_subgroup_batch(
    const std::shared_ptr<const Curve>& curve, std::string_view domain,
    std::span<const BytesView> inputs);

/// The process-wide identity-point cache shared by every H1 consumer
/// (metric family `sem.cache.h1`). Entries from different hash domains
/// never collide; entries from different curves are rejected on hit by
/// a curve-identity check.
const ShardedLruCache<Point>& identity_point_cache();

/// hash_to_subgroup through identity_point_cache().
Point hash_to_subgroup_cached(const std::shared_ptr<const Curve>& curve,
                              std::string_view domain, BytesView input);

}  // namespace medcrypt::ec
