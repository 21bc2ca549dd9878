/**
 * @file
 * BackupStore tests: authenticated append-only semantics, chain
 * enforcement, capacity budget, full-history verification.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "remote/backup_store.hh"

#include "sim/rng.hh"
#include "tests/common/fault_injection.hh"
#include "tests/common/segment_chain.hh"

namespace rssd::remote {
namespace {

class StoreTest : public ::testing::Test
{
  protected:
    StoreTest()
        : codec_(log::SegmentCodec::fromSeed("store-test")),
          store_(config(), codec_)
    {
    }

    static BackupStoreConfig
    config()
    {
        BackupStoreConfig cfg;
        cfg.capacityBytes = 1 * units::MiB;
        return cfg;
    }

    /** Build the next segment in a valid chain. */
    log::SealedSegment
    nextSegment(std::size_t n_entries = 3, std::size_t page_bytes = 0)
    {
        log::Segment seg;
        seg.id = nextId_;
        seg.prevId = nextId_ == 0 ? log::kNoSegment : nextId_ - 1;
        seg.chainAnchor = chain_.anchorDigest();
        for (std::size_t i = 0; i < n_entries; i++) {
            chain_.append(log::OpKind::Write, i, dataSeq_++,
                          log::kNoDataSeq, i, 2.0f);
        }
        seg.entries.assign(chain_.entries().begin(),
                           chain_.entries().end());
        seg.chainTail = seg.entries.empty()
            ? seg.chainAnchor
            : seg.entries.back().chain;
        if (page_bytes > 0) {
            log::PageRecord p;
            p.lpa = 1;
            p.dataSeq = dataSeq_++;
            // Incompressible content so the sealed payload size
            // tracks page_bytes (the budget test depends on it).
            p.content.resize(page_bytes);
            for (auto &b : p.content)
                b = static_cast<std::uint8_t>(rng_.next());
            seg.pages.push_back(std::move(p));
        }
        chain_.truncateBefore(chain_.totalAppended());
        nextId_++;
        return codec_.seal(seg);
    }

    log::SegmentCodec codec_;
    BackupStore store_;
    log::OperationLog chain_;
    rssd::Rng rng_{77};
    std::uint64_t nextId_ = 0;
    std::uint64_t dataSeq_ = 0;
};

TEST_F(StoreTest, AcceptsValidChain)
{
    Tick ack = 0;
    for (int i = 0; i < 5; i++)
        EXPECT_TRUE(store_.ingestSegment(nextSegment(), 100, ack));
    EXPECT_EQ(store_.segmentCount(), 5u);
    EXPECT_TRUE(store_.verifyFullChain());
    EXPECT_GT(ack, 100u);
}

TEST_F(StoreTest, RejectsWrongKey)
{
    const log::SegmentCodec other =
        log::SegmentCodec::fromSeed("wrong");
    log::Segment seg;
    seg.id = 0;
    seg.prevId = log::kNoSegment;
    Tick ack = 0;
    EXPECT_FALSE(store_.ingestSegment(other.seal(seg), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(),
              RejectReason::BadAuthentication);
}

TEST_F(StoreTest, RejectsFirstSegmentWithPredecessor)
{
    auto seg = nextSegment();
    // Forge prevId by re-sealing is impossible without the key;
    // instead create a chain starting at id 1.
    nextId_ = 5;
    log::Segment s;
    s.id = 5;
    s.prevId = 4;
    Tick ack = 0;
    EXPECT_FALSE(store_.ingestSegment(codec_.seal(s), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::ChainViolation);
    (void)seg;
}

TEST_F(StoreTest, RejectsOutOfOrderSegments)
{
    Tick ack = 0;
    const auto s0 = nextSegment();
    const auto s1 = nextSegment();
    const auto s2 = nextSegment();
    ASSERT_TRUE(store_.ingestSegment(s0, 0, ack));
    // Skip s1: s2 names s1 as predecessor, store has s0.
    EXPECT_FALSE(store_.ingestSegment(s2, 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::ChainViolation);
    // Delivering s1 then s2 works.
    EXPECT_TRUE(store_.ingestSegment(s1, 0, ack));
    EXPECT_TRUE(store_.ingestSegment(s2, 0, ack));
}

TEST_F(StoreTest, RejectsReplayedSegmentButAcksTheTailIdempotently)
{
    Tick ack = 0;
    const auto s0 = nextSegment();
    const auto s1 = nextSegment();
    ASSERT_TRUE(store_.ingestSegment(s0, 0, ack));
    ASSERT_TRUE(store_.ingestSegment(s1, 0, ack));

    // Replaying history is still a chain violation...
    EXPECT_FALSE(store_.ingestSegment(s0, 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::ChainViolation);

    // ...but re-offering the current tail is acked idempotently
    // (replicated ingest retries until quorum; a replica that
    // already stored the tail must not poison the chain).
    EXPECT_TRUE(store_.ingestSegment(s1, 0, ack));
    EXPECT_EQ(store_.stats().duplicateSegments, 1u);
    EXPECT_EQ(store_.stats().segmentsAccepted, 2u);
    EXPECT_EQ(store_.liveSegmentCount(), 2u);
    EXPECT_TRUE(store_.verifyFullChain());
}

TEST_F(StoreTest, CapacityBudgetEnforced)
{
    Tick ack = 0;
    bool rejected = false;
    for (int i = 0; i < 100 && !rejected; i++) {
        // ~64 KiB of incompressible-ish page content per segment
        // still compresses; use enough to cross 1 MiB eventually.
        rejected = !store_.ingestSegment(nextSegment(1, 256 * 1024),
                                         0, ack);
    }
    EXPECT_TRUE(rejected);
    EXPECT_EQ(store_.lastRejectReason(),
              RejectReason::CapacityExceeded);
    EXPECT_LE(store_.usedBytes(), store_.capacityBytes());
}

TEST_F(StoreTest, OpenSegmentReturnsContents)
{
    Tick ack = 0;
    ASSERT_TRUE(store_.ingestSegment(nextSegment(4, 100), 0, ack));
    const log::Segment seg = store_.openSegment(0);
    EXPECT_EQ(seg.entries.size(), 4u);
    EXPECT_EQ(seg.pages.size(), 1u);
    EXPECT_EQ(seg.pages[0].content.size(), 100u);
}

TEST_F(StoreTest, VerifyFullChainCatchesCrossSegmentSplice)
{
    // Build two *independent* chains; the second segment of chain B
    // authenticates (right key) but does not extend chain A.
    Tick ack = 0;
    ASSERT_TRUE(store_.ingestSegment(nextSegment(), 0, ack));

    log::OperationLog other;
    log::Segment rogue;
    rogue.id = 1;
    rogue.prevId = 0;
    other.append(log::OpKind::Write, 9, 9, log::kNoDataSeq, 9, 1.0f);
    rogue.chainAnchor = other.anchorDigest(); // genesis, not A's tail
    rogue.entries.assign(other.entries().begin(),
                         other.entries().end());
    rogue.chainTail = rogue.entries.back().chain;

    EXPECT_FALSE(store_.ingestSegment(codec_.seal(rogue), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::ChainViolation);
    EXPECT_TRUE(store_.verifyFullChain()); // store stayed clean
}

TEST_F(StoreTest, StatsTrack)
{
    Tick ack = 0;
    store_.ingestSegment(nextSegment(), 0, ack);
    store_.ingestSegment(nextSegment(), 0, ack);
    EXPECT_EQ(store_.stats().segmentsAccepted, 2u);
    EXPECT_EQ(store_.stats().segmentsRejected, 0u);
    EXPECT_GT(store_.stats().bytesStored, 0u);
}

TEST_F(StoreTest, CapacityAccountsWireBytesNotJustPayload)
{
    // The budget must track what the wire actually carries (header
    // + payload = wireSize()), or Figure 2's retention-time math
    // (capacity / ingest rate) drifts from reality by the header
    // bytes of every segment.
    Tick ack = 0;
    const log::SealedSegment seg = nextSegment(3, 512);
    ASSERT_TRUE(store_.ingestSegment(seg, 0, ack));
    EXPECT_EQ(store_.usedBytes(), seg.wireSize());
    EXPECT_GT(store_.usedBytes(), seg.payload.size());
    EXPECT_EQ(store_.stats().bytesStored, seg.wireSize());
}

TEST_F(StoreTest, RejectReasonNames)
{
    EXPECT_STREQ(rejectReasonName(RejectReason::None), "none");
    EXPECT_STREQ(rejectReasonName(RejectReason::BadAuthentication),
                 "bad-authentication");
    EXPECT_STREQ(rejectReasonName(RejectReason::ChainViolation),
                 "chain-violation");
    EXPECT_STREQ(rejectReasonName(RejectReason::CapacityExceeded),
                 "capacity-exceeded");
    EXPECT_STREQ(rejectReasonName(RejectReason::UnknownStream),
                 "unknown-stream");
}

// ---------------------------------------------------------------------
// Multi-stream (fleet) semantics: chain state and codecs are per
// stream, never store-global.
// ---------------------------------------------------------------------

class MultiStreamStoreTest : public ::testing::Test
{
  protected:
    MultiStreamStoreTest()
        : store_(config()),
          chainA_("device-a-key", 1),
          chainB_("device-b-key", 2)
    {
        store_.registerStream(10, chainA_.codec());
        store_.registerStream(20, chainB_.codec());
    }

    static BackupStoreConfig
    config()
    {
        BackupStoreConfig cfg;
        cfg.capacityBytes = 8 * units::MiB;
        return cfg;
    }

    BackupStore store_;
    test::SegmentChain chainA_;
    test::SegmentChain chainB_;
};

TEST_F(MultiStreamStoreTest, InterleavedStreamsBothVerify)
{
    Tick ack = 0;
    for (int i = 0; i < 4; i++) {
        EXPECT_TRUE(store_.ingestSegment(10, chainA_.next(), i, ack));
        EXPECT_TRUE(store_.ingestSegment(20, chainB_.next(), i, ack));
    }
    EXPECT_EQ(store_.segmentCount(), 8u);
    EXPECT_EQ(store_.streamSegments(10).size(), 4u);
    EXPECT_EQ(store_.streamSegments(20).size(), 4u);
    EXPECT_TRUE(store_.verifyFullChain());
}

TEST_F(MultiStreamStoreTest, StreamsCannotSpliceIntoEachOther)
{
    Tick ack = 0;
    ASSERT_TRUE(store_.ingestSegment(10, chainA_.next(), 0, ack));
    // A's next segment is valid *for stream 10*; stream 20 rejects
    // it (wrong key), and B's own chain keeps working afterwards.
    EXPECT_FALSE(store_.ingestSegment(20, chainA_.next(), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(),
              RejectReason::BadAuthentication);
    EXPECT_TRUE(store_.ingestSegment(20, chainB_.next(), 0, ack));
    EXPECT_TRUE(store_.verifyFullChain());
}

TEST_F(MultiStreamStoreTest, ChainViolationIsPerStream)
{
    Tick ack = 0;
    ASSERT_TRUE(store_.ingestSegment(10, chainA_.next(), 0, ack));
    const auto skipped = chainA_.next();
    (void)skipped; // lost on the wire: A's chain now has a gap
    EXPECT_FALSE(store_.ingestSegment(10, chainA_.next(), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::ChainViolation);

    // B is unaffected by A's violation.
    EXPECT_TRUE(store_.ingestSegment(20, chainB_.next(), 0, ack));
    EXPECT_TRUE(store_.ingestSegment(20, chainB_.next(), 0, ack));
    EXPECT_TRUE(store_.verifyFullChain());
}

TEST_F(MultiStreamStoreTest, UnknownStreamRejected)
{
    Tick ack = 0;
    EXPECT_FALSE(store_.ingestSegment(99, chainA_.next(), 0, ack));
    EXPECT_EQ(store_.lastRejectReason(), RejectReason::UnknownStream);
}

TEST_F(MultiStreamStoreTest, OpenSegmentUsesStreamCodec)
{
    Tick ack = 0;
    ASSERT_TRUE(
        store_.ingestSegment(10, chainA_.next(2, 64), 0, ack));
    ASSERT_TRUE(
        store_.ingestSegment(20, chainB_.next(5, 32), 0, ack));
    EXPECT_EQ(store_.streamOf(0), 10u);
    EXPECT_EQ(store_.streamOf(1), 20u);
    EXPECT_EQ(store_.openSegment(0).entries.size(), 2u);
    EXPECT_EQ(store_.openSegment(1).entries.size(), 5u);
}

TEST_F(MultiStreamStoreTest, CapacityBudgetIsShared)
{
    Tick ack = 0;
    bool rejected = false;
    for (int i = 0; i < 100 && !rejected; i++) {
        test::SegmentChain &c = i % 2 ? chainA_ : chainB_;
        const StreamId stream = i % 2 ? 10 : 20;
        rejected = !store_.ingestSegment(stream, c.next(1, 512 * 1024),
                                         0, ack);
    }
    EXPECT_TRUE(rejected);
    EXPECT_EQ(store_.lastRejectReason(),
              RejectReason::CapacityExceeded);
    EXPECT_LE(store_.usedBytes(), store_.capacityBytes());
}

// ---------------------------------------------------------------------
// Retention-window GC: age expiry, watermark eviction, suspicion
// holds, per-stream quotas, and chain re-anchoring via PruneRecord.
// ---------------------------------------------------------------------

class RetentionGcTest : public ::testing::Test
{
  protected:
    RetentionGcTest()
        : chainA_("gc-device-a", 11), chainB_("gc-device-b", 22)
    {
    }

    /** Store with GC enabled. @p window 0 = watermark only. */
    std::unique_ptr<BackupStore>
    makeStore(std::uint64_t capacity, Tick window)
    {
        BackupStoreConfig cfg;
        cfg.capacityBytes = capacity;
        cfg.retention.gcEnabled = true;
        cfg.retention.retentionWindow = window;
        auto store = std::make_unique<BackupStore>(cfg);
        store->registerStream(1, chainA_.codec());
        store->registerStream(2, chainB_.codec());
        return store;
    }

    test::SegmentChain chainA_;
    test::SegmentChain chainB_;
};

TEST_F(RetentionGcTest, AgeExpiryPrunesPastTheWindow)
{
    auto store = makeStore(64 * units::MiB, 10 * units::MS);
    Tick ack = 0;
    for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(store->ingestSegment(
            1, chainA_.next(3, 2048), Tick(i) * units::MS, ack));
    }
    ASSERT_EQ(store->liveSegmentCount(), 4u);

    // An arrival at t=12ms expires the segments from t=0,1,2ms
    // (arrival + window <= now); t=3ms is still inside the window.
    ASSERT_TRUE(store->ingestSegment(1, chainA_.next(3, 2048),
                                     12 * units::MS, ack));
    EXPECT_EQ(store->prunedSegments(1), 3u);
    EXPECT_EQ(store->liveSegmentCount(), 2u);
    EXPECT_EQ(store->stats().agePrunes, 3u);
    EXPECT_EQ(store->stats().pressurePrunes, 0u);
    EXPECT_TRUE(store->verifyFullChain());

    const log::PruneRecord *rec = store->pruneRecordOf(1);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->stream, 1u);
    EXPECT_EQ(rec->upToId, 2u);
    EXPECT_EQ(rec->segmentsPruned, 3u);
    EXPECT_EQ(rec->entriesPruned, 9u);
    EXPECT_EQ(rec->prunedAt, 12 * units::MS);
    EXPECT_TRUE(chainA_.codec().verifyPrune(*rec));
}

TEST_F(RetentionGcTest, UsedBytesShrinkWithEveryPrune)
{
    auto store = makeStore(64 * units::MiB, 1 * units::MS);
    Tick ack = 0;
    ASSERT_TRUE(
        store->ingestSegment(1, chainA_.next(2, 4096), 0, ack));
    const std::uint64_t used_one = store->usedBytes();
    ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 4096),
                                     10 * units::MS, ack));
    // The first segment expired on the second arrival.
    EXPECT_EQ(store->prunedSegments(1), 1u);
    EXPECT_LE(store->usedBytes(), used_one + 4096 + 4096);
    EXPECT_EQ(store->stats().bytesPruned, used_one);
    EXPECT_EQ(store->usedBytes(),
              store->stats().bytesStored - store->stats().bytesPruned);
}

TEST_F(RetentionGcTest, WatermarkEvictionSustainsIngest)
{
    // Two streams, no age horizon: only capacity pressure prunes.
    // 60 segments of ~56 KiB incompressible pages through a 1 MiB
    // budget: without GC this walls at ~18 segments; with GC every
    // arrival must be accepted and occupancy must end between the
    // watermarks.
    auto store = makeStore(1 * units::MiB, 0);
    Tick ack = 0;
    for (int i = 0; i < 60; i++) {
        test::SegmentChain &c = i % 2 ? chainA_ : chainB_;
        const StreamId stream = i % 2 ? 1 : 2;
        ASSERT_TRUE(store->ingestSegment(stream,
                                         c.next(2, 56 * 1024),
                                         Tick(i) * units::MS, ack))
            << "segment " << i << " rejected: "
            << rejectReasonName(store->lastRejectReason());
    }
    EXPECT_EQ(store->stats().segmentsRejected, 0u);
    EXPECT_GT(store->stats().pressurePrunes, 0u);
    EXPECT_LE(store->usedBytes(), store->capacityBytes());
    EXPECT_TRUE(store->verifyFullChain());
    // Both streams still have a live suffix and both re-anchor.
    EXPECT_GT(store->streamSegments(1).size(), 0u);
    EXPECT_GT(store->streamSegments(2).size(), 0u);
    EXPECT_NE(store->pruneRecordOf(1), nullptr);
    EXPECT_NE(store->pruneRecordOf(2), nullptr);
}

TEST_F(RetentionGcTest, FullyPrunedStreamStillIngests)
{
    auto store = makeStore(64 * units::MiB, 5 * units::MS);
    Tick ack = 0;
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 512),
                                         Tick(i) * units::MS, ack));
    }
    store->runRetentionGc(units::SEC); // everything past the window
    EXPECT_EQ(store->streamSegments(1).size(), 0u);
    EXPECT_EQ(store->prunedSegments(1), 3u);
    EXPECT_TRUE(store->verifyFullChain()); // record alone verifies

    // The device continues its chain; the store accepts because the
    // per-stream tail (lastId/chainTail) survives a full prune.
    ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 512),
                                     units::SEC + 1, ack));
    EXPECT_EQ(store->streamSegments(1).size(), 1u);
    EXPECT_TRUE(store->verifyFullChain());
}

TEST_F(RetentionGcTest, EvictionHoldShieldsFlaggedStream)
{
    auto store = makeStore(64 * units::MiB, 5 * units::MS);
    Tick ack = 0;
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 512),
                                         Tick(i) * units::MS, ack));
        ASSERT_TRUE(store->ingestSegment(2, chainB_.next(2, 512),
                                         Tick(i) * units::MS, ack));
    }
    store->setEvictionHold(1, true);
    EXPECT_TRUE(store->evictionHold(1));
    EXPECT_EQ(store->heldStreams(), 1u);

    store->runRetentionGc(units::SEC);
    // The held stream kept everything past the window; the unheld
    // one expired.
    EXPECT_EQ(store->prunedSegments(1), 0u);
    EXPECT_EQ(store->streamSegments(1).size(), 3u);
    EXPECT_EQ(store->prunedSegments(2), 3u);
    EXPECT_TRUE(store->verifyFullChain());

    // Releasing the hold re-exposes the stream to the window.
    store->setEvictionHold(1, false);
    store->runRetentionGc(2 * units::SEC);
    EXPECT_EQ(store->prunedSegments(1), 3u);
}

TEST_F(RetentionGcTest, QuotaBackstopPrunesHeldFlooderNotHeldVictim)
{
    // Victim (stream 1): small, flagged, held. Flooder (stream 2):
    // flagged and held too — but flooding. The quota backstop must
    // keep ingest alive by pruning the flooder past its quota while
    // the victim's evidence survives untouched: a flooding attacker
    // can only shorten its OWN retention window.
    auto store = makeStore(1 * units::MiB, 0);
    Tick ack = 0;
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 2048),
                                         Tick(i) * units::MS, ack));
    }
    store->setEvictionHold(1, true);
    store->setEvictionHold(2, true);

    for (int i = 0; i < 60; i++) {
        ASSERT_TRUE(store->ingestSegment(
            2, chainB_.next(2, 56 * 1024),
            (10 + Tick(i)) * units::MS, ack))
            << "flood segment " << i << " rejected: "
            << rejectReasonName(store->lastRejectReason());
    }
    EXPECT_EQ(store->prunedSegments(1), 0u); // victim untouched
    EXPECT_GT(store->prunedSegments(2), 0u); // flooder pays
    EXPECT_LE(store->streamLiveBytes(2),
              store->capacityBytes()); // and stays bounded
    EXPECT_EQ(store->stats().segmentsRejected, 0u);
    EXPECT_TRUE(store->verifyFullChain());
}

TEST_F(RetentionGcTest, AgeExpiryStopsAtARottenFrontSegment)
{
    // A prune opens the segment it expires. Rot on a stream's front
    // segment must stop age expiry on that stream, unpruned and with
    // its signed prune record untouched, while the other stream
    // still expires; the scrub, not the GC, deals with the rot.
    auto store = makeStore(64 * units::MiB, 10 * units::MS);
    Tick ack = 0;
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 512),
                                         Tick(i) * units::MS, ack));
        ASSERT_TRUE(store->ingestSegment(2, chainB_.next(2, 512),
                                         Tick(i) * units::MS, ack));
    }
    store->runRetentionGc(10 * units::MS); // expires the t=0 segments
    ASSERT_EQ(store->prunedSegments(1), 1u);
    const log::PruneRecord signed_before = *store->pruneRecordOf(1);

    store->injectBitRot(1, 0, 0, 1);
    store->runRetentionGc(units::SEC); // everything past the window
    EXPECT_EQ(store->streamSegments(1).size(), 2u);
    EXPECT_EQ(store->prunedSegments(1), 1u);
    EXPECT_EQ(store->pruneRecordOf(1)->hmac, signed_before.hmac);
    EXPECT_EQ(store->prunedSegments(2), 3u);
    EXPECT_FALSE(store->verifyStreamChain(1));
    EXPECT_EQ(store->chainFault(1), log::ChainFault::BadAuthentication);
    EXPECT_TRUE(store->verifyStreamChain(2));

    // Undone, the rot no longer holds the stream back.
    store->injectBitRot(1, 0, 0, 1);
    store->runRetentionGc(units::SEC + 1);
    EXPECT_EQ(store->prunedSegments(1), 3u);
    EXPECT_TRUE(store->verifyFullChain());
}

TEST_F(RetentionGcTest, PressureEvictionPassesOverARottenFrontSegment)
{
    // Pressure eviction wants the most over-quota stream's oldest
    // segment first. When that segment is rotten it must take the
    // other stream's instead, end, and admit the arrival.
    auto store = makeStore(1 * units::MiB, 0);
    Tick ack = 0;
    Tick t = 0;
    while (store->prunedSegments(1) == 0) {
        ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 56 * 1024),
                                         t++, ack));
    }
    ASSERT_GT(store->streamLiveBytes(1), store->streamQuotaBytes());
    const log::PruneRecord signed_before = *store->pruneRecordOf(1);
    const std::size_t kept = store->streamSegments(1).size();
    store->injectBitRot(1, 0, 0, 1);

    const std::uint64_t evictions = store->stats().pressurePrunes;
    while (store->stats().pressurePrunes == evictions) {
        ASSERT_TRUE(store->ingestSegment(2, chainB_.next(2, 56 * 1024),
                                         t++, ack))
            << rejectReasonName(store->lastRejectReason());
    }
    EXPECT_EQ(store->streamSegments(1).size(), kept);
    EXPECT_EQ(store->pruneRecordOf(1)->hmac, signed_before.hmac);
    EXPECT_GT(store->prunedSegments(2), 0u);
    EXPECT_LE(store->usedBytes(), store->capacityBytes());
    EXPECT_FALSE(store->verifyStreamChain(1));
    EXPECT_TRUE(store->verifyStreamChain(2));
}

TEST_F(RetentionGcTest, GcDisabledStaysAppendOnly)
{
    BackupStoreConfig cfg;
    cfg.capacityBytes = 256 * units::KiB;
    ASSERT_FALSE(cfg.retention.gcEnabled); // the default
    BackupStore store(cfg);
    store.registerStream(1, chainA_.codec());

    Tick ack = 0;
    bool rejected = false;
    for (int i = 0; i < 40 && !rejected; i++) {
        rejected = !store.ingestSegment(
            1, chainA_.next(1, 56 * 1024), Tick(i) * units::MS, ack);
    }
    EXPECT_TRUE(rejected);
    EXPECT_EQ(store.lastRejectReason(),
              RejectReason::CapacityExceeded);
    store.runRetentionGc(units::SEC); // no-op when disabled
    EXPECT_EQ(store.stats().segmentsPruned, 0u);
}

TEST_F(RetentionGcTest, PrunedSlotsAreTombstonedThenRecycled)
{
    auto store = makeStore(64 * units::MiB, 1 * units::MS);
    Tick ack = 0;
    ASSERT_TRUE(
        store->ingestSegment(1, chainA_.next(2, 512), 0, ack));
    ASSERT_TRUE(
        store->ingestSegment(1, chainA_.next(2, 512), 0, ack));

    // An operator GC pass expires both: the slots become
    // tombstones (sealedSegment() would panic on them).
    store->runRetentionGc(2 * units::MS);
    EXPECT_EQ(store->stats().segmentsPruned, 2u);
    EXPECT_TRUE(store->segmentPruned(0));
    EXPECT_TRUE(store->segmentPruned(1));
    EXPECT_EQ(store->segmentCount(), 2u);
    EXPECT_EQ(store->liveSegmentCount(), 0u);

    // The next arrival recycles a tombstoned slot instead of
    // growing storage — memory is bounded by the capacity budget,
    // not by segments ever ingested.
    ASSERT_TRUE(store->ingestSegment(1, chainA_.next(2, 512),
                                     10 * units::MS, ack));
    EXPECT_EQ(store->segmentCount(), 2u); // no growth
    EXPECT_EQ(store->liveSegmentCount(), 1u);
    EXPECT_TRUE(store->verifyFullChain());
}

// ---------------------------------------------------------------------
// Verified-prefix record: chain walks extend it instead of starting
// over, and every path that changes stored bytes or the anchor
// shrinks or resets it, so its verdicts equal a walk from scratch.
// ---------------------------------------------------------------------

class VerifiedPrefixTest : public ::testing::Test
{
  protected:
    static constexpr StreamId kStream = 3;

    VerifiedPrefixTest() : chain_("prefix-device", 5)
    {
        store_ = makeStore();
    }

    /** GC-enabled store: segments expire 10 ms after arrival. */
    std::unique_ptr<BackupStore>
    makeStore()
    {
        BackupStoreConfig cfg;
        cfg.retention.gcEnabled = true;
        cfg.retention.retentionWindow = 10 * units::MS;
        auto store = std::make_unique<BackupStore>(cfg);
        store->registerStream(kStream, chain_.codec());
        return store;
    }

    /** Ingest @p n small segments, all arriving at @p at. */
    void
    ingest(int n, Tick at = 0)
    {
        Tick ack = 0;
        for (int i = 0; i < n; i++) {
            ASSERT_TRUE(
                store_->ingestSegment(kStream, chain_.next(2), at, ack));
        }
    }

    std::uint64_t
    walked() const
    {
        return store_->stats().segmentsChainWalked;
    }

    test::SegmentChain chain_;
    std::unique_ptr<BackupStore> store_;
};

TEST_F(VerifiedPrefixTest, SecondWalkOfAnUnchangedStoreVerifiesNothing)
{
    ingest(4);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 0u);
    ASSERT_TRUE(store_->verifyFullChain());
    EXPECT_EQ(walked(), 4u);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 4u);

    ASSERT_TRUE(store_->verifyFullChain());
    EXPECT_EQ(walked(), 4u);

    // Ingest appends past the record: only the new suffix is walked.
    ingest(2);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 4u);
    ASSERT_TRUE(store_->verifyStreamChain(kStream));
    EXPECT_EQ(walked(), 6u);
}

TEST_F(VerifiedPrefixTest, PruneInsideThePrefixAddsNoWalk)
{
    for (int i = 0; i < 4; i++)
        ingest(1, Tick(i) * units::MS);
    ASSERT_TRUE(store_->verifyFullChain());
    ASSERT_EQ(walked(), 4u);

    // Expires the segments that arrived at 0, 1 and 2 ms, all inside
    // the record.
    store_->runRetentionGc(12 * units::MS);
    ASSERT_EQ(store_->prunedSegments(kStream), 3u);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 1u);
    EXPECT_TRUE(store_->verifyFullChain());
    EXPECT_EQ(walked(), 4u);
}

TEST_F(VerifiedPrefixTest, PrunePastThePrefixRestartsFromTheSignedRecord)
{
    ingest(1, 0);
    ASSERT_TRUE(store_->verifyFullChain()); // record covers segment 0
    ingest(1, 1 * units::MS);
    ingest(1, 2 * units::MS);
    ingest(1, 5 * units::MS);

    // Expires segment 0 (covered: the record shrinks to 0) and then
    // segment 1 (never walked: the record restarts from the new
    // prune record). Segment 2 must then verify against that
    // record, not against the stale state after segment 0.
    store_->runRetentionGc(11 * units::MS);
    ASSERT_EQ(store_->prunedSegments(kStream), 2u);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 0u);
    EXPECT_TRUE(store_->verifyFullChain());
    EXPECT_EQ(walked(), 1u + 2u);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 2u);
}

TEST_F(VerifiedPrefixTest, EveryPayloadByteRotIsCaughtThroughAWarmRecord)
{
    ingest(3);
    ASSERT_TRUE(store_->verifyStreamChain(kStream));
    const std::size_t payload =
        store_->sealedSegment(store_->streamSegments(kStream)[1])
            .payload.size();
    ASSERT_GT(payload, 0u);

    for (std::size_t b = 0; b < payload; b++) {
        store_->injectBitRot(kStream, 1, b, 1);
        EXPECT_FALSE(store_->verifyStreamChain(kStream)) << "byte " << b;
        // A failed walk leaves the record at the last good segment,
        // so the next walk reports the same fault.
        EXPECT_EQ(store_->verifiedPrefix(kStream), 1u);
        EXPECT_FALSE(store_->verifyFullChain()) << "byte " << b;
        store_->injectBitRot(kStream, 1, b, 1); // XOR 0x5A undoes it
        EXPECT_TRUE(store_->verifyStreamChain(kStream)) << "byte " << b;
    }
    // Per byte, the rot forces a walk of segments 0 and 1, the
    // repeat re-walks segment 1, and the undo forces all three.
    EXPECT_EQ(walked(), 3u + payload * (2u + 1u + 3u));
}

TEST_F(VerifiedPrefixTest, EveryCorruptionIsCaughtThroughAWarmRecord)
{
    ingest(3);
    ASSERT_TRUE(store_->verifyStreamChain(kStream));
    for (std::uint64_t k = 0; k < 3; k++) {
        const std::uint64_t before = walked();
        store_->injectBitRot(kStream, k, 0, 1);
        EXPECT_FALSE(store_->verifyStreamChain(kStream)) << "seg " << k;
        EXPECT_EQ(store_->chainFault(kStream),
                  log::ChainFault::BadAuthentication);
        EXPECT_EQ(store_->verifiedPrefix(kStream), k);
        EXPECT_EQ(walked(), before + k + 1); // forced re-walk
        store_->injectBitRot(kStream, k, 0, 1); // XOR 0x5A undoes it
        EXPECT_TRUE(store_->verifyStreamChain(kStream)) << "seg " << k;
        EXPECT_EQ(store_->chainFault(kStream), log::ChainFault::None);
        EXPECT_EQ(store_->verifiedPrefix(kStream), 3u);
    }
}

TEST_F(VerifiedPrefixTest, ReadStreamVisitsFromItsCursorAndWalksOnce)
{
    // The one reader: segments before the cursor that the record
    // does not cover are walked but not visited; a later read that
    // starts inside the record only decrypts.
    ingest(4);
    std::vector<std::uint64_t> ids;
    const auto collect = [&](const log::SealedSegment &sealed,
                             log::Segment &opened) {
        EXPECT_EQ(opened.id, sealed.id);
        ids.push_back(sealed.id);
    };
    ASSERT_TRUE(store_->readStream(kStream, 2, collect));
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(walked(), 4u);
    EXPECT_EQ(store_->verifiedPrefix(kStream), 4u);

    ids.clear();
    ASSERT_TRUE(store_->readStream(kStream, 1, collect));
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(walked(), 4u);
    ASSERT_TRUE(store_->verifyStreamChain(kStream));
    EXPECT_EQ(walked(), 4u);
}

TEST_F(VerifiedPrefixTest, AdoptedPruneRecordReanchorsTheRecord)
{
    // A source store that pruned its prefix.
    for (int i = 0; i < 3; i++)
        ingest(1, Tick(i) * units::MS);
    store_->runRetentionGc(11 * units::MS);
    ASSERT_EQ(store_->prunedSegments(kStream), 2u);
    const log::PruneRecord rec = *store_->pruneRecordOf(kStream);
    const log::SealedSegment survivor =
        store_->sealedSegment(store_->streamSegments(kStream)[0]);

    // A fresh replica walks its empty stream first (record anchored
    // at genesis), then adopts the prune record and the survivor.
    std::unique_ptr<BackupStore> replica = makeStore();
    ASSERT_TRUE(replica->verifyStreamChain(kStream));
    replica->adoptPruneRecord(kStream, rec);
    Tick ack = 0;
    ASSERT_TRUE(
        replica->ingestSegment(kStream, survivor, 11 * units::MS, ack));
    EXPECT_TRUE(replica->verifyStreamChain(kStream));
    EXPECT_EQ(replica->verifiedPrefix(kStream), 1u);
}

TEST(VerifiedPrefixCluster, ReplicaPickPassesOverACopyRottedAfterWarmup)
{
    BackupClusterConfig cfg;
    cfg.shards = 3;
    cfg.replication = 2;
    BackupCluster cluster(cfg);
    test::SegmentChain chain("pick-device");
    cluster.attachDevice(0, chain.codec());
    Tick ack = 0;
    for (int i = 0; i < 3; i++)
        ASSERT_TRUE(cluster.ingest(0, chain.next(2, 128), 0, ack));

    const ShardId first = cluster.chainVerifyingReplicaOf(0);
    ASSERT_EQ(first, cluster.replicaSetOf(0)[0]);
    ASSERT_EQ(cluster.shardStore(first).verifiedPrefix(0), 3u);
    const ShardId second = cluster.replicaSetOf(0)[1];

    cluster.mutableShardStore(first).injectBitRot(0, 1, 7, 1);
    EXPECT_EQ(cluster.chainVerifyingReplicaOf(0), second);
    cluster.mutableShardStore(first).injectBitRot(0, 1, 7, 1);
    EXPECT_EQ(cluster.chainVerifyingReplicaOf(0), first);
}

TEST(StoreFaultInjection, ScriptedCorruptionIsCaughtByStreamVerify)
{
    // The shared FaultInjector harness against a single-shard
    // cluster: a scripted one-byte rot in a stored segment must trip
    // per-stream verification (BadAuthentication), while the other
    // stream on the same shard stays verifiable — corruption is a
    // per-copy fault, not a store-wide verdict.
    BackupClusterConfig cfg;
    cfg.shards = 1;
    BackupCluster cluster(cfg);
    test::SegmentChain a("fi-a"), b("fi-b");
    cluster.attachDevice(0, a.codec());
    cluster.attachDevice(1, b.codec());
    Tick ack = 0;
    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(cluster.ingest(0, a.next(2, 128), 0, ack));
        ASSERT_TRUE(cluster.ingest(1, b.next(2, 128), 0, ack));
    }
    ASSERT_TRUE(cluster.shardStore(0).verifyFullChain());

    test::FaultInjector faults(cluster);
    faults.schedule(
        {.at = units::MS,
         .kind = test::ScriptedFault::Kind::BitRot,
         .shard = 0,
         .stream = 0,
         .segmentIdx = 1});
    faults.advanceTo(0);
    EXPECT_EQ(faults.applied(), 0u); // not due yet
    faults.advanceTo(units::MS);
    ASSERT_EQ(faults.applied(), 1u);

    EXPECT_FALSE(cluster.shardStore(0).verifyStreamChain(0));
    EXPECT_TRUE(cluster.shardStore(0).verifyStreamChain(1));
    EXPECT_FALSE(cluster.shardStore(0).verifyFullChain());
}

} // namespace
} // namespace rssd::remote
