// Tests for the sharded identity LRU cache (ec/identity_cache.h): hit /
// miss / eviction accounting, LRU recency within a shard, validator
// rejection, the end-to-end contract that revocation is decided by the
// mediator's snapshot check whatever the cache holds, and a concurrent
// suite that rides the same TSan CI filter as the other SemStress*
// suites.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ec/hash_to_point.h"
#include "ec/identity_cache.h"
#include "hash/drbg.h"
#include "mediated/mediated_gdh.h"
#include "pairing/params.h"

namespace medcrypt::ec {
namespace {

using hash::HmacDrbg;

Bytes id_bytes(int i) { return str_bytes("id-" + std::to_string(i)); }

TEST(IdentityCache, MissThenPutThenHit) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.a"});
  const Bytes id = str_bytes("alice");
  EXPECT_FALSE(cache.get("d", id).has_value());
  cache.put("d", id, 41);
  const auto got = cache.get("d", id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 41);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IdentityCache, DomainsAndLengthFramingSeparateKeys) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.b"});
  cache.put("d1", str_bytes("x"), 1);
  cache.put("d2", str_bytes("x"), 2);
  // Length framing: ("ab", "c") and ("a", "bc") must be distinct keys.
  cache.put("ab", str_bytes("c"), 3);
  cache.put("a", str_bytes("bc"), 4);
  EXPECT_EQ(*cache.get("d1", str_bytes("x")), 1);
  EXPECT_EQ(*cache.get("d2", str_bytes("x")), 2);
  EXPECT_EQ(*cache.get("ab", str_bytes("c")), 3);
  EXPECT_EQ(*cache.get("a", str_bytes("bc")), 4);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(IdentityCache, PutReplacesInPlace) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.c"});
  cache.put("d", str_bytes("x"), 1);
  cache.put("d", str_bytes("x"), 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get("d", str_bytes("x")), 2);
}

TEST(IdentityCache, ValidatorRejectionIsAMissAndDrops) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.e"});
  cache.put("d", str_bytes("x"), 9);
  EXPECT_FALSE(
      cache.get("d", str_bytes("x"), [](const int&) { return false; })
          .has_value());
  EXPECT_FALSE(cache.get("d", str_bytes("x")).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(IdentityCache, GetOrComputeComputesOncePerResidentEntry) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.f"});
  int computes = 0;
  const auto make = [&] { return ++computes; };
  EXPECT_EQ(cache.get_or_compute("d", str_bytes("x"), make), 1);
  EXPECT_EQ(cache.get_or_compute("d", str_bytes("x"), make), 1);
  EXPECT_EQ(computes, 1);
}

TEST(IdentityCache, BoundedSizeAndEvictionAccounting) {
  // capacity 8 over 8 shards = one entry per shard: heavy insertion must
  // keep the cache bounded, with every displacement counted.
  ShardedLruCache<int> cache({.capacity = 8, .metric_prefix = "test.cache.g"});
  constexpr int kInserts = 64;
  for (int i = 0; i < kInserts; ++i) cache.put("d", id_bytes(i), i);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, kInserts - cache.size());
}

TEST(IdentityCache, LruEvictsColdestNotMostRecentlyUsed) {
  // Shard assignment is an implementation detail, so first discover
  // three ids that share a shard, using a one-entry-per-shard probe
  // cache as the oracle: a second put that evicts the first means the
  // two ids collided.
  ShardedLruCache<int> probe({.capacity = 8, .metric_prefix = "test.cache.h"});
  std::vector<int> sharers{0};
  for (int j = 1; j < 256 && sharers.size() < 3; ++j) {
    probe.clear();
    probe.put("d", id_bytes(0), 0);
    probe.put("d", id_bytes(j), 0);
    if (!probe.get("d", id_bytes(0)).has_value()) sharers.push_back(j);
  }
  ASSERT_EQ(sharers.size(), 3u) << "no 3-way shard collision in 256 ids";

  // capacity 16 = two entries per shard. Fill the shard with A and B,
  // touch A (making B the LRU), insert C: B must go, A and C must stay.
  ShardedLruCache<int> cache({.capacity = 16, .metric_prefix = "test.cache.i"});
  cache.put("d", id_bytes(sharers[0]), 100);
  cache.put("d", id_bytes(sharers[1]), 200);
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[0])).has_value());
  cache.put("d", id_bytes(sharers[2]), 300);
  EXPECT_FALSE(cache.get("d", id_bytes(sharers[1])).has_value());
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[0])).has_value());
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[2])).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(IdentityCache, ClearDropsEntriesKeepsCounters) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.j"});
  cache.put("d", str_bytes("x"), 1);
  (void)cache.get("d", str_bytes("x"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("d", str_bytes("x")).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: revocation is the mediator's snapshot check, not a cache
// policy (docs/SEM_SERVICE.md). A revoked identity is denied even though
// its h(M) is resident, and once restored it is served from that same
// entry — revoke/unrevoke never flushes public values.

TEST(IdentityCacheRevocation, RevokedIdentityDeniedWhateverCacheHolds) {
  const auto& group = pairing::toy_params();
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::GdhMediator sem(group, revocations);
  HmacDrbg rng(7001);
  (void)enroll_gdh_user(group, sem, "alice", rng);
  (void)enroll_gdh_user(group, sem, "bob", rng);

  const Bytes msg = str_bytes("revoked-and-back");
  const auto& cache = identity_point_cache();
  const Point before = sem.issue_token("alice", msg);  // warms h(M)

  revocations->revoke("alice");
  EXPECT_THROW((void)sem.issue_token("alice", msg), RevokedError);
  const mediated::GdhMediator::SignRequest batch[] = {{"alice", msg},
                                                      {"bob", msg}};
  const auto tokens = sem.issue_tokens(batch);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_FALSE(tokens[0].has_value());
  ASSERT_TRUE(tokens[1].has_value());
  EXPECT_EQ(*tokens[1], sem.issue_token("bob", msg));

  revocations->unrevoke("alice");
  const auto s1 = cache.stats();
  const Point after = sem.issue_token("alice", msg);
  const auto s2 = cache.stats();
  EXPECT_EQ(after, before);
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.hits, s1.hits + 1);
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan in CI alongside SemStress*): writers,
// readers, and a clear()/stats()/size() churn thread racing on one cache
// instance.

TEST(SemStressCache, ConcurrentGetPutAndClearChurn) {
  ShardedLruCache<int> cache({.capacity = 32, .metric_prefix = "test.cache.k"});
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 7 + i) % 48;
        const int got = cache.get_or_compute("d", id_bytes(k),
                                             [&] { return k * 1000 + 7; });
        // Values are a pure function of the key: whatever raced, a
        // lookup can only ever observe the one correct value.
        EXPECT_EQ(got, k * 1000 + 7);
        if (i % 64 == 0) cache.put("d", id_bytes(k), k * 1000 + 7);
      }
    });
  }
  std::thread churn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)cache.stats();
      (void)cache.size();
      cache.clear();
      std::this_thread::yield();
    }
  });
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  churn.join();

  // Every lookup resolved to exactly one hit or one miss.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(cache.size(), 32u);
}

}  // namespace
}  // namespace medcrypt::ec
