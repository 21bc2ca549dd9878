/**
 * @file
 * Evidence-side tests: the shared SegmentChainVerifier (the one
 * implementation of the chain rules) and the EvidenceScanner's
 * resumable, O(new) incremental scanning over a live cluster.
 */

#include <gtest/gtest.h>

#include "core/rssd_device.hh"
#include "forensics/evidence.hh"

#include "tests/common/segment_chain.hh"

namespace rssd::forensics {
namespace {

// ---------------------------------------------------------------------
// SegmentChainVerifier
// ---------------------------------------------------------------------

TEST(SegmentChainVerifier, AcceptsValidChainAndCounts)
{
    test::SegmentChain chain("verify-key");
    log::SegmentChainVerifier v;
    std::uint64_t entries = 0, bytes = 0;
    for (int i = 0; i < 5; i++) {
        const log::SealedSegment sealed = chain.next(4);
        log::Segment opened;
        ASSERT_TRUE(v.verifyNext(sealed, chain.codec(), &opened));
        EXPECT_EQ(opened.entries.size(), 4u);
        entries += 4;
        bytes += sealed.wireSize();
    }
    EXPECT_EQ(v.segmentsVerified(), 5u);
    EXPECT_EQ(v.entriesVerified(), entries);
    EXPECT_EQ(v.bytesVerified(), bytes);
    EXPECT_EQ(v.fault(), log::ChainFault::None);
}

TEST(SegmentChainVerifier, RejectsTamperedPayload)
{
    test::SegmentChain chain("tamper-key");
    log::SealedSegment sealed = chain.next(3);
    sealed.payload[0] ^= 0x01;
    log::SegmentChainVerifier v;
    EXPECT_FALSE(v.verifyNext(sealed, chain.codec()));
    EXPECT_EQ(v.fault(), log::ChainFault::BadAuthentication);
    EXPECT_EQ(v.segmentsVerified(), 0u);
}

TEST(SegmentChainVerifier, RejectsWrongKey)
{
    test::SegmentChain chain("key-a");
    const log::SealedSegment sealed = chain.next(3);
    const log::SegmentCodec other =
        log::SegmentCodec::fromSeed("key-b");
    log::SegmentChainVerifier v;
    EXPECT_FALSE(v.verifyNext(sealed, other));
    EXPECT_EQ(v.fault(), log::ChainFault::BadAuthentication);
}

TEST(SegmentChainVerifier, RejectsSkippedSegment)
{
    test::SegmentChain chain("order-key");
    const log::SealedSegment s0 = chain.next(2);
    (void)chain.next(2); // s1, dropped
    const log::SealedSegment s2 = chain.next(2);

    log::SegmentChainVerifier v;
    ASSERT_TRUE(v.verifyNext(s0, chain.codec()));
    EXPECT_FALSE(v.verifyNext(s2, chain.codec()));
    EXPECT_EQ(v.fault(), log::ChainFault::BrokenOrder);
    // Failure leaves the verifier resumable at its old position.
    EXPECT_EQ(v.segmentsVerified(), 1u);
}

TEST(SegmentChainVerifier, RejectsSplicedStream)
{
    // Two streams under the SAME key with diverging histories:
    // segment ids line up, but the entry hash chains don't —
    // splicing b's segment after a's must trip the anchor check,
    // exactly the attack the chain exists to catch.
    test::SegmentChain a("same-key");
    test::SegmentChain b("same-key");
    const log::SealedSegment a0 = a.next(2);
    (void)b.next(3); // b's history diverges from a's here
    const log::SealedSegment b1 = b.next(2);

    log::SegmentChainVerifier v;
    ASSERT_TRUE(v.verifyNext(a0, a.codec()));
    EXPECT_FALSE(v.verifyNext(b1, a.codec()));
    EXPECT_EQ(v.fault(), log::ChainFault::BrokenAnchor);
}

// ---------------------------------------------------------------------
// EvidenceScanner over a live cluster
// ---------------------------------------------------------------------

/** Two fleet-mode devices offloading into a small cluster. */
class EvidenceScannerTest : public ::testing::Test
{
  protected:
    EvidenceScannerTest()
        : cluster_(clusterConfig()),
          portal0_(cluster_, 0), portal1_(cluster_, 1),
          dev0_(deviceConfig("d0"), clock0_, portal0_),
          dev1_(deviceConfig("d1"), clock1_, portal1_)
    {
        cluster_.attachDevice(0, dev0_.codec());
        cluster_.attachDevice(1, dev1_.codec());
    }

    static remote::BackupClusterConfig
    clusterConfig()
    {
        remote::BackupClusterConfig cfg;
        cfg.shards = 2;
        return cfg;
    }

    static core::RssdConfig
    deviceConfig(const std::string &key)
    {
        core::RssdConfig cfg = core::RssdConfig::forTests();
        cfg.segmentPages = 8;
        cfg.pumpThreshold = 8;
        cfg.keySeed = key;
        return cfg;
    }

    void
    writeAndDrain(core::RssdDevice &dev, int pages, std::uint8_t fill)
    {
        for (int i = 0; i < pages; i++) {
            dev.writePage(static_cast<flash::Lpa>(i % 16),
                          std::vector<std::uint8_t>(dev.pageSize(),
                                                    fill));
        }
        dev.drainOffload();
    }

    remote::BackupCluster cluster_;
    remote::ClusterPortal portal0_, portal1_;
    VirtualClock clock0_, clock1_;
    core::RssdDevice dev0_, dev1_;
};

TEST_F(EvidenceScannerTest, FirstPassVerifiesEverything)
{
    writeAndDrain(dev0_, 24, 0x11);
    writeAndDrain(dev1_, 16, 0x22);

    EvidenceScanner scanner(cluster_);
    const ScanPassCost pass = scanner.scan();
    EXPECT_EQ(pass.streamsScanned, 2u);
    EXPECT_EQ(pass.segmentsVerified, cluster_.totalSegments());
    EXPECT_EQ(pass.segmentsCached, 0u);
    EXPECT_GT(pass.entriesReplayed, 0u);

    const auto devices = scanner.devices();
    ASSERT_EQ(devices.size(), 2u);
    EXPECT_EQ(devices[0], 0u);
    EXPECT_EQ(devices[1], 1u);

    for (const DeviceId d : devices) {
        const StreamEvidence &ev = scanner.evidence(d);
        EXPECT_TRUE(ev.intact);
        EXPECT_GT(ev.segmentsVerified, 0u);
        // Replayed entries are the device's own log, in order.
        for (std::size_t i = 0; i < ev.entries.size(); i++)
            EXPECT_EQ(ev.entries[i].logSeq, i);
    }
}

TEST_F(EvidenceScannerTest, RescanWithoutNewEvidenceIsFree)
{
    writeAndDrain(dev0_, 24, 0x11);
    EvidenceScanner scanner(cluster_);
    scanner.scan();
    const std::uint64_t verified =
        scanner.total().segmentsVerified;

    const ScanPassCost second = scanner.scan();
    EXPECT_EQ(second.segmentsVerified, 0u);
    EXPECT_EQ(second.bytesVerified, 0u);
    EXPECT_EQ(second.entriesReplayed, 0u);
    EXPECT_EQ(second.segmentsCached, verified);
    EXPECT_EQ(scanner.passes(), 2u);
}

TEST_F(EvidenceScannerTest, IncrementalPassVerifiesOnlyNewSuffix)
{
    writeAndDrain(dev0_, 24, 0x11);
    writeAndDrain(dev1_, 24, 0x22);

    EvidenceScanner scanner(cluster_);
    const ScanPassCost first = scanner.scan();
    const std::uint64_t entries_before =
        scanner.evidence(0).entries.size();

    // New evidence arrives on device 0 only.
    writeAndDrain(dev0_, 24, 0x33);
    const std::uint64_t total_now = cluster_.totalSegments();
    ASSERT_GT(total_now, first.segmentsVerified);

    const ScanPassCost second = scanner.scan();
    // O(new): exactly the appended segments, everything else cached.
    EXPECT_EQ(second.segmentsVerified,
              total_now - first.segmentsVerified);
    EXPECT_EQ(second.segmentsCached, first.segmentsVerified);

    // The entry cache extended in place and stayed chain-ordered.
    const StreamEvidence &ev = scanner.evidence(0);
    EXPECT_GT(ev.entries.size(), entries_before);
    for (std::size_t i = 0; i < ev.entries.size(); i++)
        EXPECT_EQ(ev.entries[i].logSeq, i);

    // Totals accumulate across passes.
    EXPECT_EQ(scanner.total().segmentsVerified, total_now);
}

/** One fleet-mode device against a GC-enabled single-shard cluster.
 *  The retention window is huge, so nothing expires during ingest;
 *  tests force pruning by running the GC "in the future". */
class PrunedScannerTest : public ::testing::Test
{
  protected:
    PrunedScannerTest()
        : cluster_(clusterConfig()), portal_(cluster_, 0),
          dev_(deviceConfig(), clock_, portal_)
    {
        cluster_.attachDevice(0, dev_.codec());
    }

    static remote::BackupClusterConfig
    clusterConfig()
    {
        remote::BackupClusterConfig cfg;
        cfg.shards = 1;
        cfg.shard.retention.gcEnabled = true;
        cfg.shard.retention.retentionWindow = units::HOUR;
        return cfg;
    }

    static core::RssdConfig
    deviceConfig()
    {
        core::RssdConfig cfg = core::RssdConfig::forTests();
        cfg.segmentPages = 8;
        cfg.pumpThreshold = 8;
        return cfg;
    }

    void
    writeAndDrain(int pages, std::uint8_t fill)
    {
        for (int i = 0; i < pages; i++) {
            dev_.writePage(static_cast<flash::Lpa>(i % 16),
                           std::vector<std::uint8_t>(dev_.pageSize(),
                                                     fill));
        }
        dev_.drainOffload();
    }

    /** Age-expire every segment ingested so far. */
    std::uint64_t
    pruneEverything()
    {
        cluster_.runRetentionGc(clock_.now() + 2 * units::HOUR);
        return cluster_.shardStore(0).prunedSegments(0);
    }

    remote::BackupCluster cluster_;
    remote::ClusterPortal portal_;
    VirtualClock clock_;
    core::RssdDevice dev_;
};

TEST_F(PrunedScannerTest, PrunedStreamResumesFromSignedRecord)
{
    // The stream is pruned BEFORE the scanner's first contact: the
    // expired prefix is evidence the analysis will never see. The
    // scanner must resume from the signed prune record, count the
    // loss, and verify the surviving suffix.
    writeAndDrain(64, 0x11);
    const std::uint64_t pruned = pruneEverything();
    ASSERT_GT(pruned, 0u);

    // New post-prune evidence so there is a suffix to verify.
    writeAndDrain(16, 0x22);

    EvidenceScanner scanner(cluster_);
    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(0);
    EXPECT_TRUE(ev.intact);
    EXPECT_EQ(ev.segmentsPruned, pruned);
    EXPECT_EQ(ev.segmentsPrunedUnseen, pruned);
    EXPECT_EQ(ev.reanchors, 1u);
    EXPECT_GT(ev.entriesPruned, 0u);
    // Replay starts at the horizon, not at genesis.
    ASSERT_FALSE(ev.entries.empty());
    EXPECT_EQ(ev.entries.front().logSeq, ev.entriesPruned);
}

TEST_F(PrunedScannerTest, HorizonOvertakingCursorKeepsCache)
{
    // Pass 1 verifies batch A; batch B arrives unscanned; then the
    // GC expires A and B both — the horizon is now PAST the
    // cursor. The scanner must re-anchor, count only the
    // never-seen batch B as lost, and keep batch A's replayed
    // entries in the verified-prefix cache.
    writeAndDrain(64, 0x11); // batch A
    EvidenceScanner scanner(cluster_);
    scanner.scan();
    const std::uint64_t seen = scanner.evidence(0).segmentsVerified;
    const std::uint64_t cached = scanner.evidence(0).entries.size();
    ASSERT_GT(seen, 0u);

    writeAndDrain(64, 0x22); // batch B, never scanned
    const std::uint64_t pruned = pruneEverything();
    ASSERT_GT(pruned, seen);
    writeAndDrain(16, 0x33); // batch C, the surviving suffix

    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(0);
    EXPECT_TRUE(ev.intact);
    EXPECT_EQ(ev.segmentsPrunedUnseen, pruned - seen); // batch B only
    EXPECT_EQ(ev.reanchors, 1u);
    EXPECT_GT(ev.entries.size(), cached); // cache survived + C
    // Cache is batch A from genesis, then the post-horizon suffix.
    EXPECT_EQ(ev.entries.front().logSeq, 0u);
    EXPECT_EQ(ev.entries.back().logSeq,
              ev.entriesPruned + (ev.entries.size() - cached) - 1);
}

TEST_F(EvidenceScannerTest, RotAfterTheRecordWarmedIsStillCaught)
{
    // The scanner skips the MAC only inside the store's
    // verified-prefix record. Rot injected after a full audit warmed
    // that record must shrink what it covers, so the scanner MACs
    // the rotten segment itself and faults there.
    writeAndDrain(dev0_, 64, 0x11);
    writeAndDrain(dev1_, 24, 0x22);
    ASSERT_TRUE(cluster_.verifyAll());
    const remote::ShardId s = cluster_.shardOfDevice(0);
    ASSERT_GE(cluster_.shardStore(s).streamSegments(0).size(), 2u);
    cluster_.mutableShardStore(s).injectBitRot(0, 1, 0, 1);

    EvidenceScanner scanner(cluster_);
    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(0);
    EXPECT_FALSE(ev.intact);
    EXPECT_EQ(ev.fault, log::ChainFault::BadAuthentication);
    EXPECT_EQ(ev.segmentsVerified, 1u);
    EXPECT_TRUE(scanner.evidence(1).intact);
}

TEST_F(EvidenceScannerTest, RotBehindTheCursorFaultsTheNextPass)
{
    // The scanner reads through the store's one reader, whose verdict
    // covers the copy from its anchor, not just the new suffix: rot
    // that lands behind the cursor faults the next pass, as it does
    // every other reader of that copy. With R = 1 there is no copy to
    // fail over to, and the cache keeps exactly what was read before.
    writeAndDrain(dev0_, 48, 0x11);
    EvidenceScanner scanner(cluster_);
    scanner.scan();
    const std::uint64_t seen = scanner.evidence(0).segmentsVerified;
    ASSERT_GE(seen, 2u);
    ASSERT_EQ(cluster_.replicaSetOf(0).size(), 1u);
    cluster_.mutableShardStore(cluster_.shardOfDevice(0))
        .injectBitRot(0, 1, 0, 1);

    writeAndDrain(dev0_, 24, 0x33);
    scanner.scan();
    const StreamEvidence &ev = scanner.evidence(0);
    EXPECT_FALSE(ev.intact);
    EXPECT_EQ(ev.fault, log::ChainFault::BadAuthentication);
    EXPECT_EQ(ev.segmentsVerified, seen);
}

TEST_F(EvidenceScannerTest, WarmRecordLeavesPassCostsUnchanged)
{
    // Two scanners read the same new suffix: one MACs it (it lies
    // past the store's record), the other skips the MAC (an audit
    // extended the record over it first). Both count and replay the
    // same.
    writeAndDrain(dev0_, 24, 0x11);
    EvidenceScanner cold(cluster_);
    EvidenceScanner warm(cluster_);
    cold.scan();
    warm.scan();

    writeAndDrain(dev0_, 24, 0x33);
    const remote::BackupStore &store =
        cluster_.shardStore(cluster_.shardOfDevice(0));
    ASSERT_LT(store.verifiedPrefix(0), store.streamSegments(0).size());
    const ScanPassCost macs = cold.scan();
    ASSERT_TRUE(cluster_.verifyAll());
    ASSERT_EQ(store.verifiedPrefix(0), store.streamSegments(0).size());
    const ScanPassCost skips = warm.scan();

    EXPECT_GT(macs.segmentsVerified, 0u);
    EXPECT_EQ(skips.segmentsVerified, macs.segmentsVerified);
    EXPECT_EQ(skips.segmentsCached, macs.segmentsCached);
    EXPECT_EQ(skips.bytesVerified, macs.bytesVerified);
    EXPECT_EQ(skips.entriesReplayed, macs.entriesReplayed);
    const StreamEvidence &a = cold.evidence(0);
    const StreamEvidence &b = warm.evidence(0);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); i++)
        EXPECT_EQ(a.entries[i].chain, b.entries[i].chain);
}

TEST_F(EvidenceScannerTest, ScanMatchesStoreVerifyFullChain)
{
    writeAndDrain(dev0_, 40, 0x44);
    writeAndDrain(dev1_, 40, 0x55);
    EvidenceScanner scanner(cluster_);
    scanner.scan();
    EXPECT_TRUE(cluster_.verifyAll());
    for (const DeviceId d : scanner.devices())
        EXPECT_TRUE(scanner.evidence(d).intact);
}

} // namespace
} // namespace rssd::forensics
