/**
 * @file
 * ChaCha20 stream cipher (RFC 8439), implemented from scratch.
 *
 * Two users:
 *  - RSSD's offload engine encrypts sealed log segments before they
 *    leave the device over NVMe-oE.
 *  - The ransomware attack models encrypt victim data for real, so
 *    that entropy-based detectors see genuine ciphertext statistics.
 *
 * Where CPUID reports AVX2, runs of 512 bytes or more that start on a
 * block boundary are encrypted eight blocks at a time; the portable
 * block function covers everything else and every other CPU. Both
 * give identical bytes.
 */

#ifndef RSSD_CRYPTO_CHACHA20_HH
#define RSSD_CRYPTO_CHACHA20_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rssd::crypto {

using Key256 = std::array<std::uint8_t, 32>;
using Nonce96 = std::array<std::uint8_t, 12>;

/**
 * ChaCha20 keystream generator / XOR cipher. Encryption and
 * decryption are the same operation.
 */
class ChaCha20
{
  public:
    /**
     * @param key      256-bit key
     * @param nonce    96-bit nonce; must be unique per (key, stream)
     * @param counter  initial 32-bit block counter (usually 0)
     */
    ChaCha20(const Key256 &key, const Nonce96 &nonce,
             std::uint32_t counter = 0);

    /** XOR the keystream into @p len bytes at @p data, in place. */
    void apply(std::uint8_t *data, std::size_t len);

    /**
     * XOR the keystream over @p len bytes at @p src into @p dst.
     * @p dst must not partially overlap @p src (equal is fine); lets
     * decrypt-and-copy run as one pass instead of copy-then-decrypt.
     */
    void apply(const std::uint8_t *src, std::uint8_t *dst,
               std::size_t len);

    /** Convenience: encrypt/decrypt a whole vector in place. */
    void apply(std::vector<std::uint8_t> &data);

    /** Derive a Key256 from an arbitrary seed string (via SHA-256). */
    static Key256 deriveKey(const std::string &seed);

    /** Build a nonce from a 64-bit sequence number. */
    static Nonce96 nonceFromSequence(std::uint64_t seq);

  private:
    void refill();

    std::array<std::uint32_t, 16> state_;
    std::array<std::uint8_t, 64> keystream_;
    std::size_t keystreamPos_ = 64; // empty
};

/** Name of the bulk kernel ChaCha20::apply dispatches to. */
const char *chacha20ImplName();

} // namespace rssd::crypto

#endif // RSSD_CRYPTO_CHACHA20_HH
