/**
 * @file
 * Read-side voting tests: the EvidenceScanner over a replicated
 * cluster — one scan per stream (not per copy), chain-verifying
 * source selection around a corrupted replica, failover off a
 * crashed source with honest re-verification cost, and tail-vote
 * divergence when a replica's copy silently forks.
 */

#include <gtest/gtest.h>

#include "forensics/evidence.hh"

#include "tests/common/fault_injection.hh"
#include "tests/common/segment_chain.hh"

namespace rssd::forensics {
namespace {

remote::BackupClusterConfig
replicatedConfig(std::uint32_t shards, std::uint32_t r)
{
    remote::BackupClusterConfig cfg;
    cfg.shards = shards;
    cfg.replication = r;
    return cfg;
}

TEST(ReplicaForensics, ReplicatedStreamsAreScannedOncePerDevice)
{
    remote::BackupCluster cluster(replicatedConfig(3, 2));
    test::SegmentChain c0("rf-d0"), c1("rf-d1");
    cluster.attachDevice(0, c0.codec());
    cluster.attachDevice(1, c1.codec());
    Tick ack = 0;
    for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(cluster.ingest(0, c0.next(2, 128), 0, ack));
        ASSERT_TRUE(cluster.ingest(1, c1.next(2, 128), 0, ack));
    }

    EvidenceScanner scanner(cluster);
    const ScanPassCost cost = scanner.scan();

    // Each stream is read from ONE source replica; duplication is a
    // durability property, not 2x analysis work.
    EXPECT_EQ(cost.streamsScanned, 2u);
    EXPECT_EQ(cost.segmentsVerified, 8u);
    for (remote::DeviceId d = 0; d < 2; d++) {
        const StreamEvidence &ev = scanner.evidence(d);
        EXPECT_TRUE(ev.intact);
        EXPECT_EQ(ev.replicas, 2u);
        EXPECT_EQ(ev.replicasAlive, 2u);
        EXPECT_EQ(ev.tailVotes, 2u); // unanimous
        EXPECT_EQ(ev.failovers, 0u);
        EXPECT_TRUE(cluster.shardAlive(ev.shard));
    }
}

TEST(ReplicaForensics, SourceSelectionSkipsACorruptedCopy)
{
    remote::BackupCluster cluster(replicatedConfig(2, 2));
    test::SegmentChain chain("rf-corrupt");
    cluster.attachDevice(7, chain.codec());
    Tick ack = 0;
    for (int i = 0; i < 3; i++)
        ASSERT_TRUE(cluster.ingest(7, chain.next(2, 200), 0, ack));

    // Rot one byte of the primary's middle segment before first
    // contact: the scanner must source from the copy that verifies.
    const remote::ShardId primary = cluster.shardOfDevice(7);
    test::FaultInjector faults(cluster);
    faults.schedule(
        {.at = units::MS,
         .kind = test::ScriptedFault::Kind::BitRot,
         .shard = primary,
         .stream = 7,
         .segmentIdx = 1});
    faults.advanceTo(units::MS);

    EvidenceScanner scanner(cluster);
    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(7);
    EXPECT_TRUE(ev.intact);
    EXPECT_NE(ev.shard, primary);
    EXPECT_EQ(ev.segmentsVerified, 3u);
    // The rotten copy's tail metadata still matches (corruption
    // changed bytes, not ids) — votes measure agreement, the
    // payload fault is what source *selection* caught.
    EXPECT_EQ(ev.tailVotes, 2u);
}

TEST(ReplicaForensics, CrashedSourceFailsOverAndReverifies)
{
    remote::BackupCluster cluster(replicatedConfig(3, 2));
    test::SegmentChain chain("rf-failover");
    cluster.attachDevice(3, chain.codec());
    Tick ack = 0;
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(cluster.ingest(3, chain.next(2, 150), 0, ack));

    EvidenceScanner scanner(cluster);
    scanner.scan();
    const remote::ShardId first_source = scanner.evidence(3).shard;

    test::FaultInjector faults(cluster);
    faults.schedule({.at = 2 * units::MS,
                     .kind = test::ScriptedFault::Kind::KillShard,
                     .shard = first_source});
    faults.advanceTo(2 * units::MS);

    const ScanPassCost cost = scanner.scan();
    const StreamEvidence &ev = scanner.evidence(3);
    EXPECT_EQ(ev.failovers, 1u);
    EXPECT_NE(ev.shard, first_source);
    EXPECT_TRUE(cluster.shardAlive(ev.shard));
    EXPECT_TRUE(ev.intact);
    EXPECT_EQ(ev.replicasAlive, 1u);
    EXPECT_EQ(ev.tailVotes, 1u); // only the survivor left to agree
    // Honest cost accounting: the new copy is re-verified from its
    // genesis — this pass is NOT O(new)==0, and says so.
    EXPECT_EQ(cost.segmentsVerified, 4u);
    EXPECT_EQ(ev.segmentsVerified, 4u);
    EXPECT_EQ(ev.entries.size(), 8u); // replay cache rebuilt whole
}

TEST(ReplicaForensics, TailVoteCountsDivergentReplica)
{
    remote::BackupCluster cluster(replicatedConfig(2, 2));
    test::SegmentChain chain("rf-fork");
    cluster.attachDevice(5, chain.codec());
    Tick ack = 0;
    for (int i = 0; i < 2; i++)
        ASSERT_TRUE(cluster.ingest(5, chain.next(2, 100), 0, ack));

    EvidenceScanner scanner(cluster);
    scanner.scan();
    const remote::ShardId source = scanner.evidence(5).shard;
    ASSERT_EQ(scanner.evidence(5).tailVotes, 2u);

    // Fork the OTHER replica: slip it an extra (valid) segment the
    // source never saw — a split-brain lag the tail vote must make
    // visible even though both copies individually chain-verify.
    const std::vector<remote::ShardId> &set = cluster.replicaSetOf(5);
    const remote::ShardId other =
        set[0] == source ? set[1] : set[0];
    Tick side_ack = 0;
    ASSERT_TRUE(cluster.mutableShardStore(other).ingestSegment(
        5, chain.next(2, 100), 3 * units::MS, side_ack));

    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(5);
    EXPECT_EQ(ev.replicasAlive, 2u);
    EXPECT_EQ(ev.tailVotes, 1u); // the lagging source agrees only
                                 // with itself
    EXPECT_TRUE(ev.intact);
}

} // namespace
} // namespace rssd::forensics
