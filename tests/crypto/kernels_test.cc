/**
 * @file
 * Differential tests pinning each native crypto kernel to its
 * portable counterpart (the SSE4.2 CRC32C is pinned to the byte-wise
 * reference in crc32_test.cc). The portable halves run on every
 * host; a native half skips when the CPU lacks its feature or the
 * build is not x86-64, so such a host still exercises the fallback.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/kernels.hh"
#include "crypto/sha256.hh"
#include "sim/rng.hh"

namespace rssd::crypto {
namespace {

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

// ---------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------

using Sha256State = std::array<std::uint32_t, 8>;

constexpr Sha256State kSha256Iv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};

/** FIPS 180-4 padding of @p len bytes at @p p, as whole blocks. */
std::vector<std::uint8_t>
padded(const std::uint8_t *p, std::size_t len)
{
    std::vector<std::uint8_t> out(p, p + len);
    out.push_back(0x80);
    while (out.size() % 64 != 56)
        out.push_back(0);
    const std::uint64_t bits = std::uint64_t(len) * 8;
    for (int i = 7; i >= 0; i--)
        out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    return out;
}

/** Digest via an explicit padded message and the portable kernel. */
Digest
portableDigest(const std::uint8_t *p, std::size_t len)
{
    const std::vector<std::uint8_t> msg = padded(p, len);
    Sha256State s = kSha256Iv;
    kernels::sha256Portable(s.data(), msg.data(), msg.size() / 64);
    Digest out{};
    for (int i = 0; i < 8; i++) {
        for (int b = 0; b < 4; b++)
            out[i * 4 + b] =
                static_cast<std::uint8_t>(s[i] >> (24 - 8 * b));
    }
    return out;
}

TEST(Sha256Kernels, PortableKernelHashesFipsVector)
{
    const std::string abc = "abc";
    EXPECT_EQ(toHex(portableDigest(
                  reinterpret_cast<const std::uint8_t *>(abc.data()),
                  abc.size())),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Kernels, StreamingMatchesPortableAtEveryLengthAndSplit)
{
    // Sha256 runs the dispatched kernel; its buffering and one-shot
    // padding must agree with the portable kernel on an explicitly
    // padded message for every length 0-300 and every two-way split.
    // The input starts one byte past an aligned buffer.
    const std::vector<std::uint8_t> buf = randomBytes(301, 1);
    const std::uint8_t *data = buf.data() + 1;
    for (std::size_t len = 0; len <= 300; len++) {
        const Digest want = portableDigest(data, len);
        ASSERT_EQ(Sha256::hash(data, len), want) << "len " << len;
        for (std::size_t split = 0; split <= len; split++) {
            Sha256 ctx;
            ctx.update(data, split);
            ctx.update(data + split, len - split);
            ASSERT_EQ(ctx.finish(), want)
                << "len " << len << " split " << split;
        }
    }
}

TEST(Sha256Kernels, ShaNiMatchesPortable)
{
#if RSSD_CRYPTO_X86
    if (!kernels::cpuHasShaNi())
        GTEST_SKIP() << "CPU lacks SHA-NI";
    // Random states, 1-9 blocks, at four byte offsets.
    const std::vector<std::uint8_t> buf = randomBytes(64 * 9 + 3, 2);
    Rng rng(3);
    for (std::size_t offset = 0; offset < 4; offset++) {
        for (std::size_t nblocks = 1; nblocks <= 9; nblocks++) {
            Sha256State a{};
            for (auto &w : a)
                w = static_cast<std::uint32_t>(rng.next());
            Sha256State b = a;
            kernels::sha256Portable(a.data(), buf.data() + offset,
                                    nblocks);
            kernels::sha256ShaNi(b.data(), buf.data() + offset, nblocks);
            ASSERT_EQ(a, b) << "offset " << offset << " blocks "
                            << nblocks;
        }
    }
    // The final blocks of messages at each padding boundary.
    for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) {
        const std::vector<std::uint8_t> msg = padded(buf.data(), len);
        Sha256State a = kSha256Iv;
        Sha256State b = kSha256Iv;
        kernels::sha256Portable(a.data(), msg.data(), msg.size() / 64);
        kernels::sha256ShaNi(b.data(), msg.data(), msg.size() / 64);
        EXPECT_EQ(a, b) << "len " << len;
    }
#else
    GTEST_SKIP() << "no native SHA-256 kernel on this target";
#endif
}

// ---------------------------------------------------------------------
// ChaCha20
// ---------------------------------------------------------------------

/** Key, nonce and starting counters shared by the ChaCha20 cases. */
const Key256 kKey = ChaCha20::deriveKey("kernel-diff");
const Nonce96 kNonce = ChaCha20::nonceFromSequence(0x1234);
// 0xFFFFFFF9 wraps the 32-bit block counter inside one 8-block batch.
constexpr std::uint32_t kCounters[] = {0, 1, 0xFFFFFFF9u, 0xFFFFFFFFu};

/** @p len bytes of @p src through the portable kernel. */
std::vector<std::uint8_t>
portableCipher(const std::uint8_t *src, std::size_t len,
               std::uint32_t counter)
{
    const std::size_t nblocks = (len + 63) / 64;
    std::vector<std::uint8_t> in(nblocks * 64, 0), out(nblocks * 64);
    if (len > 0)
        std::memcpy(in.data(), src, len);
    auto state = kernels::chacha20State(kKey, kNonce, counter);
    kernels::chacha20Portable(state.data(), in.data(), out.data(),
                              nblocks);
    out.resize(len);
    return out;
}

TEST(ChaCha20Kernels, ApplyMatchesPortableAcrossSplits)
{
    // ChaCha20::apply hands whole batches from a block boundary to
    // the dispatched bulk kernel and everything else to refill();
    // every way of cutting the stream must give the same bytes.
    const std::vector<std::uint8_t> buf = randomBytes(2048 + 1, 4);
    const std::uint8_t *src = buf.data() + 1; // unaligned
    for (std::uint32_t counter : kCounters) {
        for (std::size_t len : {1u, 63u, 64u, 65u, 511u, 512u, 513u,
                                575u, 1023u, 1024u, 1089u, 2048u}) {
            const std::vector<std::uint8_t> want =
                portableCipher(src, len, counter);
            for (std::size_t split : {0u, 1u, 7u, 63u, 64u, 65u, 449u,
                                      511u, 513u, 1000u}) {
                if (split > len)
                    continue;
                std::vector<std::uint8_t> got(len);
                ChaCha20 c(kKey, kNonce, counter);
                c.apply(src, got.data(), split);
                c.apply(src + split, got.data() + split, len - split);
                ASSERT_EQ(got, want) << "counter " << counter << " len "
                                     << len << " split " << split;
            }
            // In place, in three odd pieces.
            std::vector<std::uint8_t> inplace(src, src + len);
            ChaCha20 c(kKey, kNonce, counter);
            const std::size_t a = len / 3, b = len / 2;
            c.apply(inplace.data(), a);
            c.apply(inplace.data() + a, b - a);
            c.apply(inplace.data() + b, len - b);
            ASSERT_EQ(inplace, want)
                << "in place, counter " << counter << " len " << len;
        }
    }
}

TEST(ChaCha20Kernels, Avx2MatchesPortable)
{
#if RSSD_CRYPTO_X86
    if (!kernels::cpuHasAvx2())
        GTEST_SKIP() << "CPU lacks AVX2";
    const std::vector<std::uint8_t> buf = randomBytes(3 * 512 + 5, 5);
    Rng rng(6);
    for (std::uint32_t counter :
         {0u, 7u, 0xFFFFFFF8u, 0xFFFFFFF9u, 0xFFFFFFFFu,
          static_cast<std::uint32_t>(rng.next())}) {
        for (std::size_t offset : {0u, 1u, 5u}) {
            for (std::size_t nbatches = 1; nbatches <= 3; nbatches++) {
                const std::uint8_t *src = buf.data() + offset;
                const std::size_t len = nbatches * 512;
                auto a = kernels::chacha20State(kKey, kNonce, counter);
                auto b = a;
                std::vector<std::uint8_t> want(len), got(len);
                kernels::chacha20Portable(a.data(), src, want.data(),
                                          nbatches * 8);
                kernels::chacha20Avx2(b.data(), src, got.data(),
                                      nbatches);
                ASSERT_EQ(got, want) << "counter " << counter
                                     << " offset " << offset
                                     << " batches " << nbatches;
                ASSERT_EQ(a, b) << "counter " << counter;

                // dst == src.
                std::vector<std::uint8_t> inplace(src, src + len);
                auto c = kernels::chacha20State(kKey, kNonce, counter);
                kernels::chacha20Avx2(c.data(), inplace.data(),
                                      inplace.data(), nbatches);
                ASSERT_EQ(inplace, want) << "in place";
            }
        }
    }
#else
    GTEST_SKIP() << "no native ChaCha20 kernel on this target";
#endif
}

// ---------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------

TEST(Crc32cKernels, PortableMatchesReference)
{
    // Crc32c.DispatchedMatchesReferenceEverywhere covers the SSE4.2
    // kernel where the CPU has it; this keeps slicing-by-16 pinned too.
    const std::vector<std::uint8_t> buf = randomBytes(1100, 7);
    for (std::size_t offset : {0u, 1u, 3u}) {
        for (std::size_t len = 0; len <= 1024; len += 1 + len / 8) {
            const std::uint8_t *p = buf.data() + offset;
            EXPECT_EQ(~kernels::crc32cPortable(~0u, p, len),
                      crc32cReference(p, len))
                << "offset " << offset << " len " << len;
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

TEST(CryptoKernels, DispatchPicksNativeWhenCpuHasIt)
{
    const std::string sha = sha256ImplName();
    const std::string chacha = chacha20ImplName();
    const std::string crc = crc32cImplName();
#if RSSD_CRYPTO_X86
    EXPECT_EQ(sha == "sha-ni", kernels::cpuHasShaNi()) << sha;
    EXPECT_EQ(chacha == "avx2", kernels::cpuHasAvx2()) << chacha;
    EXPECT_EQ(crc == "sse4.2", kernels::cpuHasSse42()) << crc;
#else
    EXPECT_EQ(sha, "portable");
    EXPECT_EQ(chacha, "portable");
    EXPECT_EQ(crc, "slicing8");
#endif
}

} // namespace
} // namespace rssd::crypto
