/**
 * @file
 * ChaCha20 against the RFC 8439 test vector, plus roundtrip and
 * keystream-uniqueness properties.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "crypto/chacha20.hh"
#include "crypto/entropy.hh"
#include "crypto/sha256.hh"

namespace rssd::crypto {
namespace {

TEST(ChaCha20, Rfc8439Vector)
{
    // RFC 8439 §2.4.2.
    Key256 key;
    for (int i = 0; i < 32; i++)
        key[i] = static_cast<std::uint8_t>(i);
    Nonce96 nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};

    std::string plain =
        "Ladies and Gentlemen of the class of '99: If I could offer "
        "you only one tip for the future, sunscreen would be it.";
    std::vector<std::uint8_t> buf(plain.begin(), plain.end());

    ChaCha20 cipher(key, nonce, 1);
    cipher.apply(buf);

    const std::uint8_t expect_head[] = {0x6e, 0x2e, 0x35, 0x9a,
                                        0x25, 0x68, 0xf9, 0x80};
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(buf[i], expect_head[i]) << "byte " << i;

    const std::uint8_t expect_tail[] = {0x87, 0x4d};
    EXPECT_EQ(buf[buf.size() - 2], expect_tail[0]);
    EXPECT_EQ(buf[buf.size() - 1], expect_tail[1]);
}

TEST(ChaCha20, RoundtripRestoresPlaintext)
{
    const Key256 key = ChaCha20::deriveKey("test-key");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(7);

    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 31);
    const auto original = data;

    ChaCha20 enc(key, nonce);
    enc.apply(data);
    EXPECT_NE(data, original);

    ChaCha20 dec(key, nonce);
    dec.apply(data);
    EXPECT_EQ(data, original);
}

TEST(ChaCha20, CiphertextLooksRandom)
{
    // Encrypting zeros yields ~8 bits/byte entropy — this property
    // is what the ransomware detectors key on.
    const Key256 key = ChaCha20::deriveKey("entropy-check");
    std::vector<std::uint8_t> zeros(64 * 1024, 0);
    ChaCha20 c(key, ChaCha20::nonceFromSequence(1));
    c.apply(zeros);
    EXPECT_GT(shannonEntropy(zeros), 7.9);
}

TEST(ChaCha20, DifferentNoncesDifferentStreams)
{
    const Key256 key = ChaCha20::deriveKey("k");
    std::vector<std::uint8_t> a(256, 0), b(256, 0);
    ChaCha20 ca(key, ChaCha20::nonceFromSequence(1));
    ChaCha20 cb(key, ChaCha20::nonceFromSequence(2));
    ca.apply(a);
    cb.apply(b);
    EXPECT_NE(a, b);
}

TEST(ChaCha20, ByteAtATimeMatchesBulk)
{
    const Key256 key = ChaCha20::deriveKey("chunking");
    const Nonce96 nonce = ChaCha20::nonceFromSequence(3);

    std::vector<std::uint8_t> bulk(300, 0xAB), stream(300, 0xAB);
    ChaCha20 cb(key, nonce);
    cb.apply(bulk);

    ChaCha20 cs(key, nonce);
    for (auto &byte : stream)
        cs.apply(&byte, 1);
    EXPECT_EQ(bulk, stream);
}

TEST(ChaCha20, DeriveKeyIsDeterministic)
{
    EXPECT_EQ(ChaCha20::deriveKey("same"), ChaCha20::deriveKey("same"));
    EXPECT_NE(ChaCha20::deriveKey("one"), ChaCha20::deriveKey("two"));
}

TEST(ChaCha20, ImplNameIsKnown)
{
    const std::string name = chacha20ImplName();
    EXPECT_TRUE(name == "portable" || name == "avx2") << name;
}

} // namespace
} // namespace rssd::crypto
