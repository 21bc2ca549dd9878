/**
 * @file
 * Segment serialization and sealing tests: exact roundtrip,
 * compression+encryption layering, HMAC/CRC tamper detection.
 */

#include <gtest/gtest.h>

#include "compress/datagen.hh"
#include "crypto/entropy.hh"
#include "log/segment.hh"

namespace rssd::log {
namespace {

Segment
sampleSegment(std::size_t n_entries, std::size_t n_pages)
{
    Segment seg;
    seg.id = 3;
    seg.prevId = 2;

    OperationLog log;
    seg.chainAnchor = log.anchorDigest();
    for (std::size_t i = 0; i < n_entries; i++) {
        log.append(i % 4 ? OpKind::Write : OpKind::Trim, i * 3, i,
                   i ? i - 1 : kNoDataSeq, i * 1000,
                   static_cast<float>(i % 8));
    }
    seg.entries.assign(log.entries().begin(), log.entries().end());
    seg.chainTail = seg.entries.empty() ? seg.chainAnchor
                                        : seg.entries.back().chain;

    compress::DataGenerator gen(9, 0.6);
    for (std::size_t i = 0; i < n_pages; i++) {
        PageRecord p;
        p.lpa = i;
        p.dataSeq = 1000 + i;
        p.writtenAt = i;
        p.invalidatedAt = i + 5;
        p.cause = i % 2 ? RetainCause::Trim : RetainCause::Overwrite;
        p.content = gen.page(4096);
        seg.pages.push_back(std::move(p));
    }
    return seg;
}

void
expectSegmentsEqual(const Segment &a, const Segment &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.prevId, b.prevId);
    EXPECT_EQ(a.chainAnchor, b.chainAnchor);
    EXPECT_EQ(a.chainTail, b.chainTail);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); i++) {
        EXPECT_EQ(a.entries[i].logSeq, b.entries[i].logSeq);
        EXPECT_EQ(a.entries[i].op, b.entries[i].op);
        EXPECT_EQ(a.entries[i].lpa, b.entries[i].lpa);
        EXPECT_EQ(a.entries[i].dataSeq, b.entries[i].dataSeq);
        EXPECT_EQ(a.entries[i].prevDataSeq, b.entries[i].prevDataSeq);
        EXPECT_EQ(a.entries[i].timestamp, b.entries[i].timestamp);
        EXPECT_EQ(a.entries[i].entropy, b.entries[i].entropy);
        EXPECT_EQ(a.entries[i].chain, b.entries[i].chain);
    }
    ASSERT_EQ(a.pages.size(), b.pages.size());
    for (std::size_t i = 0; i < a.pages.size(); i++) {
        EXPECT_EQ(a.pages[i].lpa, b.pages[i].lpa);
        EXPECT_EQ(a.pages[i].dataSeq, b.pages[i].dataSeq);
        EXPECT_EQ(a.pages[i].writtenAt, b.pages[i].writtenAt);
        EXPECT_EQ(a.pages[i].invalidatedAt, b.pages[i].invalidatedAt);
        EXPECT_EQ(a.pages[i].cause, b.pages[i].cause);
        EXPECT_EQ(a.pages[i].content, b.pages[i].content);
    }
}

TEST(Segment, SerializeRoundtrip)
{
    const Segment seg = sampleSegment(17, 5);
    const Segment back = Segment::deserialize(seg.serialize());
    expectSegmentsEqual(seg, back);
}

TEST(Segment, SerializedSizeIsExact)
{
    for (auto [e, p] : {std::pair<std::size_t, std::size_t>{0, 0},
                        {1, 0},
                        {0, 1},
                        {17, 5},
                        {100, 32}}) {
        const Segment seg = sampleSegment(e, p);
        EXPECT_EQ(seg.serialize().size(), seg.serializedSize())
            << e << " entries, " << p << " pages";
    }
}

TEST(Segment, BorrowedEntriesSerializeIdentically)
{
    // The offload engine seals from a span over the oplog's storage;
    // the bytes must match an owned-entries segment exactly.
    const Segment owned = sampleSegment(23, 4);

    Segment borrowing;
    borrowing.id = owned.id;
    borrowing.prevId = owned.prevId;
    borrowing.chainAnchor = owned.chainAnchor;
    borrowing.chainTail = owned.chainTail;
    borrowing.pages = owned.pages;
    borrowing.borrowEntries({owned.entries.data(),
                             owned.entries.size()});

    EXPECT_EQ(borrowing.entrySpan().size(), owned.entries.size());
    EXPECT_EQ(borrowing.serialize(), owned.serialize());
    expectSegmentsEqual(owned,
                        Segment::deserialize(borrowing.serialize()));
}

TEST(Segment, EmptySegmentRoundtrip)
{
    const Segment seg = sampleSegment(0, 0);
    const Segment back = Segment::deserialize(seg.serialize());
    expectSegmentsEqual(seg, back);
}

TEST(Segment, EntriesOnlyAndPagesOnly)
{
    expectSegmentsEqual(sampleSegment(10, 0),
                        Segment::deserialize(
                            sampleSegment(10, 0).serialize()));
    expectSegmentsEqual(sampleSegment(0, 10),
                        Segment::deserialize(
                            sampleSegment(0, 10).serialize()));
}

TEST(SegmentCodec, SealOpenRoundtrip)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("test-seed");
    const Segment seg = sampleSegment(20, 8);
    const SealedSegment sealed = codec.seal(seg);
    EXPECT_TRUE(codec.verify(sealed));
    expectSegmentsEqual(seg, codec.open(sealed));
}

TEST(SegmentCodec, PayloadIsCompressed)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    const Segment seg = sampleSegment(0, 32); // compressible pages
    const SealedSegment sealed = codec.seal(seg);
    EXPECT_LT(sealed.payload.size(), sealed.rawSize);
}

TEST(SegmentCodec, PayloadIsEncrypted)
{
    // The wire payload must look like ciphertext even though the
    // underlying pages are low-entropy user data.
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    const SealedSegment sealed = codec.seal(sampleSegment(0, 32));
    EXPECT_GT(crypto::shannonEntropy(sealed.payload), 7.5);
}

TEST(SegmentCodec, WrongKeyFailsVerification)
{
    const SegmentCodec a = SegmentCodec::fromSeed("key-a");
    const SegmentCodec b = SegmentCodec::fromSeed("key-b");
    const SealedSegment sealed = a.seal(sampleSegment(5, 2));
    EXPECT_FALSE(b.verify(sealed));
}

TEST(SegmentCodec, PayloadTamperDetected)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    SealedSegment sealed = codec.seal(sampleSegment(5, 2));
    sealed.payload[sealed.payload.size() / 2] ^= 0x01;
    EXPECT_FALSE(codec.verify(sealed));
}

TEST(SegmentCodec, HeaderTamperDetected)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    SealedSegment sealed = codec.seal(sampleSegment(5, 2));
    sealed.prevId = 12345; // splice attempt
    EXPECT_FALSE(codec.verify(sealed));
}

TEST(SegmentCodec, ChainTailTamperDetected)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    SealedSegment sealed = codec.seal(sampleSegment(5, 2));
    sealed.chainTail[0] ^= 0xFF;
    EXPECT_FALSE(codec.verify(sealed));
}

/** One field of a struct under test, as raw bytes to flip. */
struct FlipField
{
    const char *name;
    std::uint8_t *bytes;
    std::size_t size;
};

template <typename T>
FlipField
flipField(const char *name, T &value)
{
    return {name, reinterpret_cast<std::uint8_t *>(&value),
            sizeof value};
}

/**
 * Flip every bit of every field in turn, expect @p accepts to reject
 * each flip, and undo it. @return the number of flips tried.
 */
template <typename Accepts>
std::size_t
sweepEveryBit(const std::vector<FlipField> &fields, Accepts accepts)
{
    std::size_t flips = 0;
    for (const FlipField &f : fields) {
        for (std::size_t bit = 0; bit < f.size * 8; bit++) {
            const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
            f.bytes[bit / 8] ^= mask;
            EXPECT_FALSE(accepts()) << f.name << " bit " << bit;
            f.bytes[bit / 8] ^= mask;
            flips++;
        }
    }
    return flips;
}

TEST(SegmentCodec, EveryBitFlipIsRejected)
{
    // Custody's first line: a verified-prefix record may skip the
    // MAC only because no single flipped bit anywhere in a sealed
    // segment survives verify().
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    SealedSegment t = codec.seal(sampleSegment(2, 0));
    ASSERT_TRUE(codec.verify(t));
    ASSERT_FALSE(t.payload.empty());

    const std::size_t flips = sweepEveryBit(
        {flipField("id", t.id),
         flipField("prevId", t.prevId),
         {"chainAnchor", t.chainAnchor.data(), t.chainAnchor.size()},
         {"chainTail", t.chainTail.data(), t.chainTail.size()},
         flipField("rawSize", t.rawSize),
         {"payload", t.payload.data(), t.payload.size()},
         {"hmac", t.hmac.data(), t.hmac.size()},
         flipField("crc", t.crc)},
        [&] { return codec.verify(t); });
    EXPECT_EQ(flips, 8 * (8 + 8 + 32 + 32 + 8 + t.payload.size() + 32 +
                          4));
    EXPECT_TRUE(codec.verify(t)); // every flip was undone
}

// ---------------------------------------------------------------------
// Prune records (retention-GC chain re-anchors)
// ---------------------------------------------------------------------

PruneRecord
samplePrune()
{
    PruneRecord rec;
    rec.stream = 7;
    rec.upToId = 41;
    rec.segmentsPruned = 42;
    rec.entriesPruned = 1337;
    rec.bytesPruned = 9 * units::MiB;
    rec.prunedAt = 5 * units::SEC;
    rec.anchor.fill(0xAB);
    return rec;
}

TEST(PruneRecord, SealVerifyRoundtrip)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("prune-key");
    PruneRecord rec = samplePrune();
    codec.sealPrune(rec);
    EXPECT_TRUE(codec.verifyPrune(rec));
}

TEST(PruneRecord, EveryFieldIsAuthenticated)
{
    // Every bit of every field, the signature included.
    const SegmentCodec codec = SegmentCodec::fromSeed("prune-key");
    PruneRecord t = samplePrune();
    codec.sealPrune(t);
    ASSERT_TRUE(codec.verifyPrune(t));

    const std::size_t flips = sweepEveryBit(
        {flipField("stream", t.stream),
         flipField("upToId", t.upToId),
         flipField("segmentsPruned", t.segmentsPruned),
         flipField("entriesPruned", t.entriesPruned),
         flipField("bytesPruned", t.bytesPruned),
         flipField("prunedAt", t.prunedAt),
         {"anchor", t.anchor.data(), t.anchor.size()},
         {"hmac", t.hmac.data(), t.hmac.size()}},
        [&] { return codec.verifyPrune(t); });
    EXPECT_EQ(flips, 8u * (6 * 8 + 32 + 32));
    EXPECT_TRUE(codec.verifyPrune(t));
}

TEST(PruneRecord, WrongKeyRejected)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("prune-key");
    PruneRecord rec = samplePrune();
    codec.sealPrune(rec);
    const SegmentCodec other = SegmentCodec::fromSeed("other-key");
    EXPECT_FALSE(other.verifyPrune(rec));
}

using SegmentDeathTest = ::testing::Test;

TEST(SegmentDeathTest, OpenTamperedPanics)
{
    const SegmentCodec codec = SegmentCodec::fromSeed("k");
    SealedSegment sealed = codec.seal(sampleSegment(1, 1));
    sealed.payload[0] ^= 1;
    EXPECT_DEATH(codec.open(sealed), "verification");
}

TEST(SegmentDeathTest, TruncatedBufferPanics)
{
    const Segment seg = sampleSegment(3, 1);
    Bytes raw = seg.serialize();
    raw.resize(raw.size() / 2);
    EXPECT_DEATH(Segment::deserialize(raw), "truncated");
}

TEST(SegmentDeathTest, BadMagicPanics)
{
    Bytes raw = sampleSegment(1, 0).serialize();
    raw[0] ^= 0xFF;
    EXPECT_DEATH(Segment::deserialize(raw), "magic");
}

} // namespace
} // namespace rssd::log
