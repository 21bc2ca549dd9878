#include "crypto/chacha20.hh"

#include <cstring>
#include <string>

#include "crypto/kernels.hh"
#include "crypto/sha256.hh"

#if RSSD_CRYPTO_X86
#include <immintrin.h>
#endif

namespace rssd::crypto {

namespace {

std::uint32_t
rotl(std::uint32_t x, int n)
{
    return (x << n) | (x >> (32 - n));
}

void
quarterRound(std::array<std::uint32_t, 16> &s, int a, int b, int c, int d)
{
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 16);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 12);
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 8);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 7);
}

std::uint32_t
load32le(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

/** One 64-byte keystream block for the input block @p state. */
void
keystreamBlock(const std::uint32_t *state, std::uint8_t *out)
{
    std::array<std::uint32_t, 16> working{};
    std::memcpy(working.data(), state, sizeof(working));
    for (int round = 0; round < 10; round++) {
        quarterRound(working, 0, 4, 8, 12);
        quarterRound(working, 1, 5, 9, 13);
        quarterRound(working, 2, 6, 10, 14);
        quarterRound(working, 3, 7, 11, 15);
        quarterRound(working, 0, 5, 10, 15);
        quarterRound(working, 1, 6, 11, 12);
        quarterRound(working, 2, 7, 8, 13);
        quarterRound(working, 3, 4, 9, 14);
    }
    for (int i = 0; i < 16; i++) {
        const std::uint32_t word = working[i] + state[i];
        out[i * 4] = static_cast<std::uint8_t>(word);
        out[i * 4 + 1] = static_cast<std::uint8_t>(word >> 8);
        out[i * 4 + 2] = static_cast<std::uint8_t>(word >> 16);
        out[i * 4 + 3] = static_cast<std::uint8_t>(word >> 24);
    }
}

/** dst = src ^ ks over @p len bytes, a word at a time. */
void
xorBytes(const std::uint8_t *src, const std::uint8_t *ks, std::uint8_t *dst,
         std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t d, k;
        std::memcpy(&d, src + i, 8);
        std::memcpy(&k, ks + i, 8);
        d ^= k;
        std::memcpy(dst + i, &d, 8);
    }
    for (; i < len; i++)
        dst[i] = static_cast<std::uint8_t>(src[i] ^ ks[i]);
}

#if RSSD_CRYPTO_X86
/** Rotate each 32-bit lane left by @p n. */
template <int n>
__attribute__((target("avx2"))) inline __m256i
rotl8x(__m256i x)
{
    if constexpr (n == 16) {
        const __m256i rot16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
        return _mm256_shuffle_epi8(x, rot16);
    } else if constexpr (n == 8) {
        const __m256i rot8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
        return _mm256_shuffle_epi8(x, rot8);
    } else {
        return _mm256_or_si256(_mm256_slli_epi32(x, n),
                               _mm256_srli_epi32(x, 32 - n));
    }
}

__attribute__((target("avx2"))) inline void
quarterRound8x(__m256i *x, int a, int b, int c, int d)
{
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotl8x<16>(_mm256_xor_si256(x[d], x[a]));
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotl8x<12>(_mm256_xor_si256(x[b], x[c]));
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = rotl8x<8>(_mm256_xor_si256(x[d], x[a]));
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotl8x<7>(_mm256_xor_si256(x[b], x[c]));
}

/**
 * Transpose 8 row vectors (row r = word r of blocks 0..7) in place,
 * so that x[j] holds words 0..7 of block j.
 */
__attribute__((target("avx2"))) inline void
transpose8x8(__m256i *x)
{
    const __m256i t0 = _mm256_unpacklo_epi32(x[0], x[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(x[0], x[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(x[2], x[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(x[2], x[3]);
    const __m256i t4 = _mm256_unpacklo_epi32(x[4], x[5]);
    const __m256i t5 = _mm256_unpackhi_epi32(x[4], x[5]);
    const __m256i t6 = _mm256_unpacklo_epi32(x[6], x[7]);
    const __m256i t7 = _mm256_unpackhi_epi32(x[6], x[7]);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
    const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
    x[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    x[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    x[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    x[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    x[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    x[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    x[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    x[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/** dst[0, 32) = src[0, 32) ^ ks. */
__attribute__((target("avx2"))) inline void
xor32(const std::uint8_t *src, __m256i ks, std::uint8_t *dst)
{
    const __m256i in =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                        _mm256_xor_si256(in, ks));
}
#endif

using XorFn = void (*)(std::uint32_t *, const std::uint8_t *,
                       std::uint8_t *, std::size_t);

/** The kernel apply() hands whole batches of blocks to. */
struct Impl
{
    XorFn fn;               ///< XORs n batches; advances the counter
    std::size_t batchBytes; ///< bytes per batch, a multiple of 64
    const char *name;
};

const Impl &
impl()
{
    static const Impl picked = []() -> Impl {
#if RSSD_CRYPTO_X86
        if (kernels::cpuHasAvx2())
            return {kernels::chacha20Avx2, 512, "avx2"};
#endif
        return {kernels::chacha20Portable, 64, "portable"};
    }();
    return picked;
}

} // namespace

namespace kernels {

std::array<std::uint32_t, 16>
chacha20State(const Key256 &key, const Nonce96 &nonce,
              std::uint32_t counter)
{
    std::array<std::uint32_t, 16> s{};
    // "expand 32-byte k"
    s[0] = 0x61707865;
    s[1] = 0x3320646e;
    s[2] = 0x79622d32;
    s[3] = 0x6b206574;
    for (int i = 0; i < 8; i++)
        s[4 + i] = load32le(key.data() + 4 * i);
    s[12] = counter;
    for (int i = 0; i < 3; i++)
        s[13 + i] = load32le(nonce.data() + 4 * i);
    return s;
}

void
chacha20Portable(std::uint32_t *state, const std::uint8_t *src,
                 std::uint8_t *dst, std::size_t nblocks)
{
    std::uint8_t ks[64] = {};
    for (; nblocks > 0; nblocks--, src += 64, dst += 64) {
        keystreamBlock(state, ks);
        xorBytes(src, ks, dst, 64);
        state[12]++;
    }
}

#if RSSD_CRYPTO_X86
bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2");
}

__attribute__((target("avx2"))) void
chacha20Avx2(std::uint32_t *state, const std::uint8_t *src,
             std::uint8_t *dst, std::size_t nbatches)
{
    // Lane j of x[w] is word w of block j; only the counter differs
    // between lanes, and it wraps mod 2^32 as refill()'s does.
    const __m256i lane = _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    for (; nbatches > 0; nbatches--, src += 512, dst += 512) {
        __m256i in[16] = {}, x[16] = {};
        for (int w = 0; w < 16; w++)
            in[w] = _mm256_set1_epi32(static_cast<int>(state[w]));
        in[12] = _mm256_add_epi32(in[12], lane);
        for (int w = 0; w < 16; w++)
            x[w] = in[w];

        for (int round = 0; round < 10; round++) {
            quarterRound8x(x, 0, 4, 8, 12);
            quarterRound8x(x, 1, 5, 9, 13);
            quarterRound8x(x, 2, 6, 10, 14);
            quarterRound8x(x, 3, 7, 11, 15);
            quarterRound8x(x, 0, 5, 10, 15);
            quarterRound8x(x, 1, 6, 11, 12);
            quarterRound8x(x, 2, 7, 8, 13);
            quarterRound8x(x, 3, 4, 9, 14);
        }
        for (int w = 0; w < 16; w++)
            x[w] = _mm256_add_epi32(x[w], in[w]);

        // x[0..7] become words 0-7 of blocks 0..7, x[8..15] words
        // 8-15; little-endian lanes are already the wire byte order.
        transpose8x8(x);
        transpose8x8(x + 8);
        for (int j = 0; j < 8; j++) {
            xor32(src + 64 * j, x[j], dst + 64 * j);
            xor32(src + 64 * j + 32, x[8 + j], dst + 64 * j + 32);
        }
        state[12] += 8;
    }
}
#endif

} // namespace kernels

ChaCha20::ChaCha20(const Key256 &key, const Nonce96 &nonce,
                   std::uint32_t counter)
    : state_(kernels::chacha20State(key, nonce, counter))
{
}

void
ChaCha20::refill()
{
    keystreamBlock(state_.data(), keystream_.data());
    state_[12]++; // block counter
    keystreamPos_ = 0;
}

void
ChaCha20::apply(std::uint8_t *data, std::size_t len)
{
    apply(data, data, len);
}

void
ChaCha20::apply(const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len)
{
    const Impl &kernel = impl();
    while (len > 0) {
        // Whole batches from a block boundary go to the kernel;
        // refill() covers partial blocks.
        if (keystreamPos_ == 64 && len >= kernel.batchBytes) {
            const std::size_t bytes =
                len / kernel.batchBytes * kernel.batchBytes;
            kernel.fn(state_.data(), src, dst, bytes / kernel.batchBytes);
            src += bytes;
            dst += bytes;
            len -= bytes;
            continue;
        }
        if (keystreamPos_ == 64)
            refill();
        std::size_t take = 64 - keystreamPos_;
        if (take > len)
            take = len;
        xorBytes(src, keystream_.data() + keystreamPos_, dst, take);
        keystreamPos_ += take;
        src += take;
        dst += take;
        len -= take;
    }
}

void
ChaCha20::apply(std::vector<std::uint8_t> &data)
{
    apply(data.data(), data.size());
}

Key256
ChaCha20::deriveKey(const std::string &seed)
{
    const Digest d = Sha256::hash(seed.data(), seed.size());
    Key256 key;
    std::memcpy(key.data(), d.data(), key.size());
    return key;
}

Nonce96
ChaCha20::nonceFromSequence(std::uint64_t seq)
{
    Nonce96 n{};
    for (int i = 0; i < 8; i++)
        n[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    return n;
}

const char *
chacha20ImplName()
{
    return impl().name;
}

} // namespace rssd::crypto
