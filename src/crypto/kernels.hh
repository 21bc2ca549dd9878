/**
 * @file
 * Per-ISA block kernels behind the crypto entry points. Private to
 * src/crypto and tests/crypto: everything else calls Sha256,
 * ChaCha20 and crc32c(), which each pick one kernel per process
 * from CPUID.
 *
 * The native kernels exist only on GCC/Clang x86-64 builds
 * (RSSD_CRYPTO_X86), and each may run only after its cpuHas*()
 * check has passed. The portable kernels are the fallback, the only
 * path on every other target, and the reference the differential
 * tests pin each native kernel to. Both produce identical bytes.
 */

#ifndef RSSD_CRYPTO_KERNELS_HH
#define RSSD_CRYPTO_KERNELS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/chacha20.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RSSD_CRYPTO_X86 1
#else
#define RSSD_CRYPTO_X86 0
#endif

namespace rssd::crypto::kernels {

/** Compress @p nblocks 64-byte blocks at @p blocks into @p state. */
void sha256Portable(std::uint32_t *state, const std::uint8_t *blocks,
                    std::size_t nblocks);

/** The 16-word ChaCha20 input block for (key, nonce, counter). */
std::array<std::uint32_t, 16> chacha20State(const Key256 &key,
                                            const Nonce96 &nonce,
                                            std::uint32_t counter);

/**
 * XOR @p nblocks 64-byte keystream blocks over @p src into @p dst,
 * starting at block counter state[12], and advance state[12] by
 * @p nblocks (mod 2^32). @p dst may equal @p src.
 */
void chacha20Portable(std::uint32_t *state, const std::uint8_t *src,
                      std::uint8_t *dst, std::size_t nblocks);

/** Raw (uninverted) CRC32C update, slicing-by-16. */
std::uint32_t crc32cPortable(std::uint32_t crc, const std::uint8_t *p,
                             std::size_t len);

#if RSSD_CRYPTO_X86
bool cpuHasShaNi();
bool cpuHasAvx2();
bool cpuHasSse42();

/** sha256Portable on the SHA extensions (SHA-NI + SSE4.1). */
void sha256ShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                 std::size_t nblocks);

/** chacha20Portable on AVX2, over @p nbatches batches of 8 blocks. */
void chacha20Avx2(std::uint32_t *state, const std::uint8_t *src,
                  std::uint8_t *dst, std::size_t nbatches);

/** crc32cPortable on the SSE4.2 `crc32` instruction. */
std::uint32_t crc32cSse42(std::uint32_t crc, const std::uint8_t *p,
                          std::size_t len);
#endif

} // namespace rssd::crypto::kernels

#endif // RSSD_CRYPTO_KERNELS_HH
