/**
 * @file
 * ShardMap tests: placement determinism, distribution quality, and —
 * the property consistent hashing exists for — bounded remapping
 * when a shard is added or removed.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "remote/shard_map.hh"

namespace rssd::remote {
namespace {

ShardMap
mapWithShards(std::uint32_t n, std::uint32_t vnodes = 64)
{
    ShardMap map(vnodes);
    for (ShardId s = 0; s < n; s++)
        map.addShard(s);
    return map;
}

TEST(ShardMap, EmptyRingHasNoOwner)
{
    ShardMap map;
    EXPECT_EQ(map.shardOf(123), kNoShard);
    EXPECT_EQ(map.shardCount(), 0u);
}

TEST(ShardMap, SingleShardOwnsEverything)
{
    ShardMap map = mapWithShards(1);
    for (std::uint64_t key = 0; key < 100; key++)
        EXPECT_EQ(map.shardOf(key), 0u);
}

TEST(ShardMap, PlacementIsDeterministic)
{
    ShardMap a = mapWithShards(5);
    ShardMap b = mapWithShards(5);
    for (std::uint64_t key = 0; key < 1000; key++)
        EXPECT_EQ(a.shardOf(key), b.shardOf(key));
}

TEST(ShardMap, DistributionCoversAllShards)
{
    const std::uint32_t shards = 8;
    ShardMap map = mapWithShards(shards);
    std::map<ShardId, std::uint64_t> counts;
    const std::uint64_t keys = 8000;
    for (std::uint64_t key = 0; key < keys; key++)
        counts[map.shardOf(key)]++;

    ASSERT_EQ(counts.size(), shards);
    // With 64 vnodes the load factor stays within a loose band —
    // no shard should see less than a third or more than triple the
    // fair share.
    const double fair = static_cast<double>(keys) / shards;
    for (const auto &[shard, n] : counts) {
        EXPECT_GT(n, fair / 3) << "shard " << shard << " starved";
        EXPECT_LT(n, fair * 3) << "shard " << shard << " overloaded";
    }
}

TEST(ShardMap, AddShardRemapsOnlyToNewShard)
{
    const std::uint64_t keys = 4000;
    ShardMap map = mapWithShards(4);
    std::vector<ShardId> before(keys);
    for (std::uint64_t key = 0; key < keys; key++)
        before[key] = map.shardOf(key);

    map.addShard(4);

    std::uint64_t moved = 0;
    for (std::uint64_t key = 0; key < keys; key++) {
        const ShardId now = map.shardOf(key);
        if (now != before[key]) {
            // A key may only move *to* the new shard, never between
            // pre-existing shards.
            EXPECT_EQ(now, 4u) << "key " << key;
            moved++;
        }
    }
    // Expected share of the new shard is keys/5; allow wide slack
    // but insist remapping is neither empty nor wholesale.
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, keys / 2);
}

TEST(ShardMap, RemoveShardRemapsOnlyItsKeys)
{
    const std::uint64_t keys = 4000;
    ShardMap map = mapWithShards(4);
    std::vector<ShardId> before(keys);
    for (std::uint64_t key = 0; key < keys; key++)
        before[key] = map.shardOf(key);

    map.removeShard(2);

    for (std::uint64_t key = 0; key < keys; key++) {
        const ShardId now = map.shardOf(key);
        if (before[key] != 2) {
            // Keys not on the removed shard must not move at all.
            EXPECT_EQ(now, before[key]) << "key " << key;
        } else {
            EXPECT_NE(now, 2u) << "key " << key;
        }
    }
    EXPECT_EQ(map.shardCount(), 3u);
}

// -- Replica placement (successorsOf) ------------------------------------

TEST(ShardMap, SuccessorsAreDistinctAndLedByTheOwner)
{
    const std::uint32_t shards = 6;
    ShardMap map = mapWithShards(shards);
    for (std::uint32_t r = 1; r < shards; r++) {
        for (std::uint64_t key = 0; key < 500; key++) {
            const std::vector<ShardId> set = map.successorsOf(key, r);
            ASSERT_EQ(set.size(), r) << "r=" << r << " key=" << key;
            // The primary is the plain consistent-hash owner.
            EXPECT_EQ(set.front(), map.shardOf(key));
            std::set<ShardId> distinct(set.begin(), set.end());
            EXPECT_EQ(distinct.size(), set.size())
                << "duplicate replica, r=" << r << " key=" << key;
        }
    }
}

TEST(ShardMap, SuccessorsClampToRingSize)
{
    ShardMap map = mapWithShards(3);
    const std::vector<ShardId> set = map.successorsOf(42, 8);
    EXPECT_EQ(set.size(), 3u);
    EXPECT_EQ(std::set<ShardId>(set.begin(), set.end()).size(), 3u);
    EXPECT_TRUE(ShardMap().successorsOf(42, 3).empty());
}

TEST(ShardMap, SuccessorsAreDeterministic)
{
    ShardMap a = mapWithShards(5);
    ShardMap b = mapWithShards(5);
    for (std::uint64_t key = 0; key < 500; key++)
        EXPECT_EQ(a.successorsOf(key, 3), b.successorsOf(key, 3));
}

TEST(ShardMap, AddShardOnlyInsertsItselfIntoReplicaSets)
{
    const std::uint64_t keys = 2000;
    const std::uint32_t r = 3;
    ShardMap map = mapWithShards(5);
    std::vector<std::vector<ShardId>> before(keys);
    for (std::uint64_t key = 0; key < keys; key++)
        before[key] = map.successorsOf(key, r);

    map.addShard(5);

    std::uint64_t changed = 0;
    for (std::uint64_t key = 0; key < keys; key++) {
        const std::vector<ShardId> now = map.successorsOf(key, r);
        if (now == before[key])
            continue;
        changed++;
        // Growth is local: a changed set must contain the joiner, and
        // every other member must come from the old set — adding a
        // shard never reshuffles placement between pre-existing
        // shards.
        const std::set<ShardId> old(before[key].begin(),
                                    before[key].end());
        bool has_new = false;
        for (const ShardId s : now) {
            if (s == 5u)
                has_new = true;
            else
                EXPECT_TRUE(old.count(s)) << "key " << key;
        }
        EXPECT_TRUE(has_new) << "key " << key;
    }
    EXPECT_GT(changed, 0u);
    EXPECT_LT(changed, keys); // not a wholesale remap
}

TEST(ShardMap, RemoveShardPreservesSurvivingReplicas)
{
    const std::uint64_t keys = 2000;
    const std::uint32_t r = 3;
    ShardMap map = mapWithShards(6);
    std::vector<std::vector<ShardId>> before(keys);
    for (std::uint64_t key = 0; key < keys; key++)
        before[key] = map.successorsOf(key, r);

    map.removeShard(2);

    for (std::uint64_t key = 0; key < keys; key++) {
        const std::vector<ShardId> now = map.successorsOf(key, r);
        const std::set<ShardId> survivors(now.begin(), now.end());
        // Removal is local: every old member other than the removed
        // shard keeps its replica role (possibly at a new rank).
        for (const ShardId s : before[key]) {
            if (s != 2u) {
                EXPECT_TRUE(survivors.count(s))
                    << "key " << key << " lost survivor " << s;
            }
        }
        EXPECT_FALSE(survivors.count(2u)) << "key " << key;
    }
}

TEST(ShardMap, AddThenRemoveRestoresPlacement)
{
    const std::uint64_t keys = 2000;
    ShardMap map = mapWithShards(3);
    std::vector<ShardId> before(keys);
    for (std::uint64_t key = 0; key < keys; key++)
        before[key] = map.shardOf(key);

    map.addShard(3);
    map.removeShard(3);

    for (std::uint64_t key = 0; key < keys; key++)
        EXPECT_EQ(map.shardOf(key), before[key]);
}

} // namespace
} // namespace rssd::remote
