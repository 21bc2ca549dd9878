#include "crypto/sha256.hh"

#include <algorithm>
#include <cstring>

#include "crypto/kernels.hh"
#include "sim/logging.hh"

#if RSSD_CRYPTO_X86
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rssd::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** The portable compression of one 64-byte block into @p state. */
void
compressBlock(std::uint32_t *state, const std::uint8_t *block)
{
    // Rolling 16-word message schedule: w[] is a ring holding the
    // last 16 schedule words, so the expansion runs fused with the
    // rounds instead of materializing all 64 words up front.
    std::uint32_t w[16];
    for (int i = 0; i < 16; i++) {
        w[i] = (std::uint32_t(block[i * 4]) << 24) |
               (std::uint32_t(block[i * 4 + 1]) << 16) |
               (std::uint32_t(block[i * 4 + 2]) << 8) |
               std::uint32_t(block[i * 4 + 3]);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];

    for (int i = 0; i < 64; i++) {
        std::uint32_t wi;
        if (i < 16) {
            wi = w[i];
        } else {
            const std::uint32_t w15 = w[(i - 15) & 15];
            const std::uint32_t w2 = w[(i - 2) & 15];
            const std::uint32_t s0 =
                rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
            const std::uint32_t s1 =
                rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
            wi = w[i & 15] + s0 + w[(i - 7) & 15] + s1;
            w[i & 15] = wi;
        }
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kK[i] + wi;
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#if RSSD_CRYPTO_X86
/** Byte-swap each 32-bit word: SHA-256 reads big-endian words. */
__attribute__((target("sha,sse4.1"))) inline __m128i
loadBe(const std::uint8_t *p)
{
    const __m128i swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    return _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), swap);
}

/** Rounds 4i..4i+3 on message words @p w. */
__attribute__((target("sha,sse4.1"))) inline void
rounds4(__m128i &abef, __m128i &cdgh, __m128i w, int i)
{
    __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(reinterpret_cast<const __m128i *>(&kK[4 * i])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/** Message words 4i..4i+3 from the four groups before them. */
__attribute__((target("sha,sse4.1"))) inline __m128i
schedule(__m128i w4, __m128i w3, __m128i w2, __m128i w1)
{
    const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3),
                                    _mm_alignr_epi8(w1, w2, 4));
    return _mm_sha256msg2_epu32(t, w1);
}
#endif

using BlocksFn = void (*)(std::uint32_t *, const std::uint8_t *,
                          std::size_t);

struct Impl
{
    BlocksFn fn;
    const char *name;
};

const Impl &
impl()
{
    static const Impl picked = []() -> Impl {
#if RSSD_CRYPTO_X86
        if (kernels::cpuHasShaNi())
            return {kernels::sha256ShaNi, "sha-ni"};
#endif
        return {kernels::sha256Portable, "portable"};
    }();
    return picked;
}

} // namespace

namespace kernels {

void
sha256Portable(std::uint32_t *state, const std::uint8_t *blocks,
               std::size_t nblocks)
{
    for (; nblocks > 0; nblocks--, blocks += 64)
        compressBlock(state, blocks);
}

#if RSSD_CRYPTO_X86
bool
cpuHasShaNi()
{
    // CPUID leaf 7 EBX bit 29; read directly because not every
    // supported compiler knows __builtin_cpu_supports("sha").
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return false;
    return (ebx & (1u << 29)) != 0 && __builtin_cpu_supports("sse4.1");
}

__attribute__((target("sha,sse4.1"))) void
sha256ShaNi(std::uint32_t *state, const std::uint8_t *blocks,
            std::size_t nblocks)
{
    // The SHA-NI rounds keep the state as (A,B,E,F) and (C,D,G,H).
    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; nblocks > 0; nblocks--, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;

        __m128i w0 = loadBe(blocks);
        rounds4(abef, cdgh, w0, 0);
        __m128i w1 = loadBe(blocks + 16);
        rounds4(abef, cdgh, w1, 1);
        __m128i w2 = loadBe(blocks + 32);
        rounds4(abef, cdgh, w2, 2);
        __m128i w3 = loadBe(blocks + 48);
        rounds4(abef, cdgh, w3, 3);
        for (int i = 4; i < 16; i += 4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(abef, cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(abef, cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(abef, cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(abef, cdgh, w3, i + 3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}
#endif

} // namespace kernels

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
}

void
Sha256::update(const void *data, std::size_t len)
{
    panicIf(finished_, "Sha256::update after finish");
    const auto *p = static_cast<const std::uint8_t *>(data);
    const BlocksFn blocks = impl().fn;
    totalLen_ += len;

    // Fill a partially filled buffer first.
    if (bufferLen_ > 0) {
        const std::size_t want = 64 - bufferLen_;
        const std::size_t take = std::min(want, len);
        std::memcpy(buffer_.data() + bufferLen_, p, take);
        bufferLen_ += take;
        p += take;
        len -= take;
        if (bufferLen_ == 64) {
            blocks(state_.data(), buffer_.data(), 1);
            bufferLen_ = 0;
        }
    }

    if (len >= 64) {
        const std::size_t whole = len / 64;
        blocks(state_.data(), p, whole);
        p += whole * 64;
        len -= whole * 64;
    }

    if (len > 0) {
        std::memcpy(buffer_.data(), p, len);
        bufferLen_ = len;
    }
}

void
Sha256::update(const std::vector<std::uint8_t> &data)
{
    update(data.data(), data.size());
}

Digest
Sha256::finish()
{
    panicIf(finished_, "Sha256::finish called twice");
    finished_ = true;

    // The buffered tail, 0x80, zeros and the 64-bit big-endian bit
    // length: one block if the length fits after the 0x80, else two.
    std::uint8_t tail[128] = {};
    std::memcpy(tail, buffer_.data(), bufferLen_);
    tail[bufferLen_] = 0x80;
    const std::size_t tail_len = bufferLen_ < 56 ? 64 : 128;
    const std::uint64_t bit_len = totalLen_ * 8;
    for (int i = 0; i < 8; i++) {
        tail[tail_len - 8 + i] =
            static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    impl().fn(state_.data(), tail, tail_len / 64);

    Digest out;
    for (int i = 0; i < 8; i++) {
        out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Digest
Sha256::hash(const void *data, std::size_t len)
{
    Sha256 ctx;
    ctx.update(data, len);
    return ctx.finish();
}

Digest
Sha256::hash(const std::vector<std::uint8_t> &data)
{
    return hash(data.data(), data.size());
}

HmacSha256::HmacSha256(const std::uint8_t *key, std::size_t key_len)
{
    std::array<std::uint8_t, 64> k{};
    if (key_len > 64) {
        const Digest kd = Sha256::hash(key, key_len);
        std::memcpy(k.data(), kd.data(), kd.size());
    } else {
        std::memcpy(k.data(), key, key_len);
    }

    std::array<std::uint8_t, 64> pad;
    for (int i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x36;
    innerInit_.update(pad.data(), pad.size());
    for (int i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x5c;
    outerInit_.update(pad.data(), pad.size());

    ctx_ = innerInit_;
}

void
HmacSha256::update(const void *data, std::size_t len)
{
    ctx_.update(data, len);
}

void
HmacSha256::update(const std::vector<std::uint8_t> &data)
{
    ctx_.update(data.data(), data.size());
}

Digest
HmacSha256::finish()
{
    const Digest inner_digest = ctx_.finish();
    Sha256 outer = outerInit_;
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.finish();
}

void
HmacSha256::reset()
{
    ctx_ = innerInit_;
}

Digest
hmacSha256(const std::uint8_t *key, std::size_t key_len,
           const void *data, std::size_t len)
{
    HmacSha256 mac(key, key_len);
    mac.update(data, len);
    return mac.finish();
}

const char *
sha256ImplName()
{
    return impl().name;
}

std::string
toHex(const Digest &d)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

} // namespace rssd::crypto
