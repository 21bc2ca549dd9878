/**
 * @file
 * LZ compressor tests: exact roundtrip over adversarial inputs,
 * ratio behaviour over controlled-redundancy data, and golden digests
 * of the compressed token stream (the stream is wire format: a sealed
 * segment carries it verbatim).
 */

#include <gtest/gtest.h>

#include <string>

#include "compress/datagen.hh"
#include "compress/lz.hh"
#include "crypto/sha256.hh"
#include "log/segment.hh"
#include "sim/rng.hh"

namespace rssd::compress {
namespace {

void
expectRoundtrip(const Bytes &input)
{
    const Bytes packed = lzCompress(input);
    const Bytes unpacked = lzDecompress(packed, input.size());
    ASSERT_EQ(unpacked, input);
}

TEST(Lz, EmptyInput)
{
    expectRoundtrip({});
    EXPECT_TRUE(lzCompress({}).empty());
}

TEST(Lz, TinyInputs)
{
    expectRoundtrip({0x42});
    expectRoundtrip({1, 2});
    expectRoundtrip({1, 2, 3});
    expectRoundtrip({1, 2, 3, 4});
}

TEST(Lz, AllSameByteCompressesWell)
{
    Bytes input(4096, 0x55);
    const Bytes packed = lzCompress(input);
    expectRoundtrip(input);
    EXPECT_LT(packed.size(), input.size() / 10);
}

TEST(Lz, RepeatedPatternCompresses)
{
    Bytes input;
    const char *pattern = "hello flash world! ";
    for (int i = 0; i < 400; i++)
        input.insert(input.end(), pattern, pattern + 19);
    const Bytes packed = lzCompress(input);
    expectRoundtrip(input);
    EXPECT_LT(packed.size(), input.size() / 4);
}

TEST(Lz, RandomDataExpandsOnlyMildly)
{
    rssd::Rng rng(99);
    Bytes input(8192);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.next());
    const Bytes packed = lzCompress(input);
    expectRoundtrip(input);
    // Worst-case framing overhead: 1 control byte per 128 literals.
    EXPECT_LT(packed.size(), input.size() + input.size() / 64 + 16);
}

TEST(Lz, OverlappingMatchRle)
{
    // "abcabcabc..." forces overlapping matches (dist < len).
    Bytes input;
    for (int i = 0; i < 1000; i++)
        input.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
    expectRoundtrip(input);
}

TEST(Lz, LongMatchChunking)
{
    // A run far longer than kMaxMatch must chunk into several tokens.
    Bytes input(kMaxMatch * 7 + 13, 0xEE);
    expectRoundtrip(input);
}

TEST(Lz, MatchAtMaxDistance)
{
    rssd::Rng rng(123);
    Bytes input;
    Bytes phrase(32);
    for (auto &b : phrase)
        b = static_cast<std::uint8_t>(rng.next());
    input.insert(input.end(), phrase.begin(), phrase.end());
    // Push the phrase past 64 KiB away, then repeat it.
    for (std::size_t i = 0; i < 70000; i++)
        input.push_back(static_cast<std::uint8_t>(rng.next()));
    input.insert(input.end(), phrase.begin(), phrase.end());
    expectRoundtrip(input);
}

class LzRoundtripTest
    : public ::testing::TestWithParam<std::pair<std::size_t, double>>
{
};

TEST_P(LzRoundtripTest, RoundtripAtManySizesAndMixes)
{
    const auto [size, zero_fraction] = GetParam();
    rssd::Rng rng(size * 7 + 1);
    Bytes input(size);
    for (auto &b : input) {
        b = rng.uniform() < zero_fraction
            ? 0
            : static_cast<std::uint8_t>(rng.next());
    }
    expectRoundtrip(input);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndMixes, LzRoundtripTest,
    ::testing::Values(std::pair<std::size_t, double>{1, 0.0},
                      std::pair<std::size_t, double>{127, 0.5},
                      std::pair<std::size_t, double>{128, 0.5},
                      std::pair<std::size_t, double>{129, 0.9},
                      std::pair<std::size_t, double>{4096, 0.3},
                      std::pair<std::size_t, double>{4096, 0.95},
                      std::pair<std::size_t, double>{65537, 0.7}));

TEST(Lz, RatioHelper)
{
    EXPECT_DOUBLE_EQ(compressionRatio(100, 50), 2.0);
    EXPECT_DOUBLE_EQ(compressionRatio(100, 0), 1.0);
}

TEST(Lz, FuzzRoundtripSizeSweepTo64KiB)
{
    // Fuzz-style sweep: pseudo-random content whose redundancy varies
    // with the size, covering every power-of-two boundary (the 8-byte
    // match-extension and chunked-copy fast paths have their edge
    // cases at word boundaries) up to and past 64 KiB.
    rssd::Rng rng(20260726);
    for (std::size_t size = 0; size <= 70000;
         size = size < 96 ? size + 1 : size * 17 / 13 + 1) {
        Bytes input(size);
        const double zero_frac = (size % 97) / 96.0;
        for (auto &b : input) {
            b = rng.uniform() < zero_frac
                ? 0
                : static_cast<std::uint8_t>(rng.next() & 0x1f);
        }
        const Bytes packed = lzCompress(input);
        const Bytes unpacked = lzDecompress(packed, input.size());
        ASSERT_EQ(unpacked, input) << "size " << size;
    }
}

TEST(Lz, SelfOverlappingMatchesAllShortDistances)
{
    // Period-p content forces matches with dist == p < 8: the
    // decompressor must take the byte-by-byte path and reproduce the
    // run exactly, including when a match token crosses the period.
    for (std::size_t period = 1; period <= 9; period++) {
        Bytes input;
        for (std::size_t i = 0; i < 3000; i++)
            input.push_back(static_cast<std::uint8_t>(
                'A' + (i % period)));
        const Bytes packed = lzCompress(input);
        const Bytes unpacked = lzDecompress(packed, input.size());
        ASSERT_EQ(unpacked, input) << "period " << period;
    }
}

TEST(Lz, MixedOverlapAndLiteralTail)
{
    // Runs + uncompressible tails at sizes straddling the 8-byte
    // chunk boundary of the decompressor's copy loop.
    rssd::Rng rng(7);
    for (std::size_t run_len :
         {4u, 7u, 8u, 9u, 15u, 16u, 17u, 127u, 131u, 132u, 133u}) {
        Bytes input;
        for (int rep = 0; rep < 40; rep++) {
            input.insert(input.end(), run_len,
                         static_cast<std::uint8_t>(rep));
            for (int j = 0; j < 5; j++)
                input.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        const Bytes packed = lzCompress(input);
        ASSERT_EQ(lzDecompress(packed, input.size()), input)
            << "run_len " << run_len;
    }
}

/** Hex SHA-256 of lzCompress(@p input). */
std::string
packedDigest(const Bytes &input)
{
    return crypto::toHex(crypto::Sha256::hash(lzCompress(input)));
}

/**
 * A serialized segment shaped like the offload engine's: a log tail
 * of 64 entries plus 16 retained 4 KiB pages.
 */
Bytes
offloadShapedSegment()
{
    log::Segment seg;
    seg.id = 3;
    seg.prevId = 2;
    log::OperationLog lg;
    seg.chainAnchor = lg.anchorDigest();
    for (std::size_t i = 0; i < 64; i++) {
        lg.append(i % 4 ? log::OpKind::Write : log::OpKind::Trim, i * 3,
                  i, i ? i - 1 : log::kNoDataSeq, i * 1000,
                  static_cast<float>(i % 8));
    }
    seg.entries.assign(lg.entries().begin(), lg.entries().end());
    seg.chainTail = seg.entries.back().chain;
    DataGenerator gen(5, 0.6);
    for (std::size_t i = 0; i < 16; i++) {
        log::PageRecord p;
        p.lpa = i;
        p.dataSeq = 1000 + i;
        p.writtenAt = i;
        p.invalidatedAt = i + 5;
        p.cause = i % 2 ? log::RetainCause::Trim
                        : log::RetainCause::Overwrite;
        p.content = gen.page(4096);
        seg.pages.push_back(std::move(p));
    }
    return seg.serialize();
}

/**
 * A 32-byte random phrase, zeros, and the phrase again @p gap bytes
 * after its first copy.
 */
Bytes
phraseRepeatedAt(std::size_t gap)
{
    rssd::Rng rng(123);
    Bytes phrase(32);
    for (auto &b : phrase)
        b = static_cast<std::uint8_t>(rng.next());
    Bytes input(phrase);
    input.resize(gap, 0);
    input.insert(input.end(), phrase.begin(), phrase.end());
    return input;
}

// Golden digests of the token stream, which is wire format: any change
// to the hash, the table, the greedy parse or the token layout fails
// here, however fast it is.

TEST(LzGolden, EverySizeTo300)
{
    // Small alphabets at every size so matches start, end and overlap
    // at each possible offset from the end of the input.
    Bytes all;
    for (std::size_t size = 0; size <= 300; size++) {
        rssd::Rng rng(size);
        const std::uint64_t mask = size % 3 == 0 ? 0x03
                                 : size % 3 == 1 ? 0x0f : 0xff;
        Bytes input(size);
        for (auto &b : input)
            b = static_cast<std::uint8_t>(rng.next() & mask);
        const Bytes packed = lzCompress(input);
        const std::size_t len = packed.size();
        for (int shift = 0; shift < 32; shift += 8)
            all.push_back(static_cast<std::uint8_t>(len >> shift));
        all.insert(all.end(), packed.begin(), packed.end());
    }
    EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(all)),
        "4e1674c73f0f45b4d649dc7b08c3a9fe82739511ef71489ac3acb3fb5a91ae54");
}

TEST(LzGolden, DataGeneratorPages)
{
    struct Golden
    {
        std::size_t size;
        double compressibility;
        const char *digest;
    };
    const Golden goldens[] = {
        {4096, 0.0,
         "d96b5041067513dd79eb046717da42d9ea28c9d91189630cf16511982e9eb747"},
        {4096, 0.55,
         "a9e714a340085b9666ffb6fe69c0c7a7ffdb2f0269f7d3686e4f5746b1c00d5f"},
        {4096, 0.9,
         "e7e2b95159436a195a7a36a232f5a59940f1ecfaca4c49d7f88c27f7ae66a813"},
        {4096, 1.0,
         "783bbbfb6ac6b57d26876922e6053a242706158303e3ff4f329d0d7c21a8c7a6"},
        {65536, 0.0,
         "20cf3ae8e12c013f30961f8afa90d94440ec11325dfac62cb67ff277d8e95df3"},
        {65536, 0.55,
         "6deba1beb8970cb3e4aabacfafd38c432a72ebdb9158ddb7a22f21c0cbb8cce1"},
        {65536, 0.9,
         "393ad358d58e1f7312a7c526103a6516b791900062b863e5697427ba957a587c"},
        {65536, 1.0,
         "ec019dd494fc30437b45034b8a5f6eab0f912973856ffb43a557f4e766a0046b"},
        {153600, 0.0,
         "71624bb47129b3e8737269aa33b6485d6755054b8dfe68483ff04694b689f9ce"},
        {153600, 0.55,
         "e314b28004670f25d902305c23cdba11cf0516285cb345db253230907abeda3f"},
        {153600, 0.9,
         "bcc4d5d30ab87ad9c58d424f75c6213c9481cf71e4a678bdb74775ae8695d83d"},
        {153600, 1.0,
         "42d9e14a414c5f383b122ccd2b2168f86299d8aa594e3bccda7f29ebdb51fbf1"},
    };
    for (const Golden &g : goldens) {
        DataGenerator gen(31, g.compressibility);
        EXPECT_EQ(packedDigest(gen.page(g.size)), g.digest)
            << g.size << " bytes at " << g.compressibility;
    }
}

TEST(LzGolden, Zeros)
{
    EXPECT_EQ(packedDigest(Bytes(100 * 1024, 0)),
        "d6448ea03f737c15d8d58f7fac7ccaa3d8915c2584aaec574d76cbbadca7ac08");
}

TEST(LzGolden, RepeatAtAndPastMaxDistance)
{
    // 65535 is the farthest distance the format encodes; one byte
    // further the repeat must go out as literals.
    const Bytes at = phraseRepeatedAt(kMaxDistance);
    const Bytes past = phraseRepeatedAt(kMaxDistance + 1);
    EXPECT_LT(lzCompress(at).size(), lzCompress(past).size());
    EXPECT_EQ(packedDigest(at),
        "575c95db8c59a6a81527d5e9218c9549c4d729742a2eb506a3ae809a6cf7347a");
    EXPECT_EQ(packedDigest(past),
        "d1f333e196f82a15cd90cb515d3c678088850e304f8bc9138142729546a45b49");
}

TEST(LzGolden, OffloadShapedSegment)
{
    EXPECT_EQ(packedDigest(offloadShapedSegment()),
        "c76d4a8233da0a0ee7afaafaa4d710ebd3ef1de38bbfeb7b5c0ae02323ea5a41");
}

TEST(LzDeathTest, OversizedStreamPanics)
{
    // A stream that decodes to more bytes than the framing promised
    // must panic, not write past the pre-sized output buffer.
    Bytes input(64, 0x11);
    const Bytes packed = lzCompress(input);
    EXPECT_DEATH(lzDecompress(packed, 10), "size mismatch");
    EXPECT_DEATH(lzDecompress(packed, 1000), "size mismatch");
}

} // namespace
} // namespace rssd::compress
