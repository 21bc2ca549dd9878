#include "compress/lz.hh"

#include <array>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace rssd::compress {

namespace {

constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint32_t
hash4(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - kHashBits);
}

/**
 * Length of the common prefix of [a, a+limit) and [b, b+limit),
 * compared 8 bytes at a time: one 64-bit XOR finds the first
 * differing byte via countr_zero. Identical to the byte-at-a-time
 * scan for every input (little-endian hosts; byte fallback
 * otherwise).
 */
std::size_t
commonPrefix(const std::uint8_t *a, const std::uint8_t *b,
             std::size_t limit)
{
    std::size_t n = 0;
    if constexpr (std::endian::native == std::endian::little) {
        while (n + 8 <= limit) {
            std::uint64_t wa, wb;
            std::memcpy(&wa, a + n, 8);
            std::memcpy(&wb, b + n, 8);
            const std::uint64_t x = wa ^ wb;
            if (x != 0)
                return n + (std::countr_zero(x) >> 3);
            n += 8;
        }
    }
    while (n < limit && a[n] == b[n])
        n++;
    return n;
}

/** Emit a literal run [start, end) as one or more literal tokens. */
void
flushLiterals(const Bytes &input, std::size_t start, std::size_t end,
              Bytes &out)
{
    while (start < end) {
        const std::size_t run = std::min<std::size_t>(128, end - start);
        out.push_back(static_cast<std::uint8_t>(run - 1));
        out.insert(out.end(), input.begin() + start,
                   input.begin() + start + run);
        start += run;
    }
}

} // namespace

Bytes
lzCompress(const Bytes &input)
{
    Bytes out;
    out.reserve(input.size() / 2 + 16);

    const std::size_t n = input.size();
    if (n < kMinMatch) {
        flushLiterals(input, 0, n, out);
        return out;
    }

    const std::uint8_t *const in = input.data();
    const std::size_t last = n - kMinMatch; // the last parse position

    // head[h] = most recent position with hash h. An empty slot holds
    // `last`: it is loadable (last + 4 == n) and never a candidate,
    // because every position that reads it is at or before it, so
    // pos - last - 1 wraps past kMaxDistance.
    std::vector<std::uint32_t> head(kHashSize,
                                    static_cast<std::uint32_t>(last));

    std::size_t pos = 0;
    std::size_t literal_start = 0;

    while (pos <= last) {
        const std::uint32_t cur = load32(in + pos);
        const std::uint32_t h = hash4(cur);
        const std::size_t cand = head[h];
        head[h] = static_cast<std::uint32_t>(pos);

        // One branch, not three: the 4-byte compare and the distance
        // test (1 <= pos - cand <= kMaxDistance) fold into one flag,
        // so a fresh table's coin-flip "slot empty?" never branches.
        const std::uint32_t miss = (load32(in + cand) ^ cur) |
            static_cast<std::uint32_t>(pos - cand - 1 >= kMaxDistance);
        if (miss == 0) {
            // Extend the match as far as the format allows. Pointer
            // arithmetic, not operator[]: pos + kMinMatch may be
            // exactly n (an empty extension window).
            const std::size_t limit = std::min(kMaxMatch, n - pos);
            const std::size_t match_len = kMinMatch +
                commonPrefix(in + cand + kMinMatch, in + pos + kMinMatch,
                             limit - kMinMatch);
            flushLiterals(input, literal_start, pos, out);
            const std::size_t dist = pos - cand;
            out.push_back(static_cast<std::uint8_t>(
                0x80 | (match_len - kMinMatch)));
            out.push_back(static_cast<std::uint8_t>(dist & 0xff));
            out.push_back(static_cast<std::uint8_t>(dist >> 8));
            // Insert hash entries inside the match so later matches
            // can reference its interior.
            const std::size_t insert_end =
                std::min(pos + match_len, last + 1);
            for (std::size_t i = pos + 1; i < insert_end; i++)
                head[hash4(load32(in + i))] = static_cast<std::uint32_t>(i);
            pos += match_len;
            literal_start = pos;
        } else {
            pos++;
        }
    }

    flushLiterals(input, literal_start, n, out);
    return out;
}

Bytes
lzDecompress(const Bytes &input, std::size_t expected_size)
{
    // The caller's framing records the original size, so the output
    // buffer is allocated (and value-initialized) exactly once and
    // every token lands through a raw cursor — no per-token growth
    // checks or reallocation.
    Bytes out(expected_size);
    std::uint8_t *const ob = out.data();
    std::size_t wpos = 0;

    std::size_t pos = 0;
    const std::size_t n = input.size();
    while (pos < n) {
        const std::uint8_t ctrl = input[pos++];
        if (ctrl < 0x80) {
            const std::size_t run = static_cast<std::size_t>(ctrl) + 1;
            panicIf(pos + run > n, "lz: truncated literal run");
            panicIf(run > expected_size - wpos,
                    "lz: decompressed size mismatch");
            std::memcpy(ob + wpos, input.data() + pos, run);
            wpos += run;
            pos += run;
        } else {
            panicIf(pos + 2 > n, "lz: truncated match token");
            const std::size_t len = (ctrl & 0x7f) + kMinMatch;
            const std::size_t dist = static_cast<std::size_t>(input[pos]) |
                (static_cast<std::size_t>(input[pos + 1]) << 8);
            pos += 2;
            panicIf(dist == 0 || dist > wpos,
                    "lz: invalid match distance");
            panicIf(len > expected_size - wpos,
                    "lz: decompressed size mismatch");
            const std::uint8_t *src = ob + (wpos - dist);
            std::uint8_t *dst = ob + wpos;
            if (dist >= 8) {
                // Non-overlapping at 8-byte granularity: each chunk's
                // source lies wholly before the write cursor, so
                // chunked memcpy is exact.
                std::size_t i = 0;
                for (; i + 8 <= len; i += 8)
                    std::memcpy(dst + i, src + i, 8);
                if (i < len)
                    std::memcpy(dst + i, src + i, len - i);
            } else {
                // Self-overlapping match (RLE-style): must copy
                // byte-by-byte so earlier output feeds later bytes.
                for (std::size_t i = 0; i < len; i++)
                    dst[i] = src[i];
            }
            wpos += len;
        }
    }

    panicIf(wpos != expected_size, "lz: decompressed size mismatch");
    return out;
}

double
compressionRatio(std::size_t original, std::size_t compressed)
{
    if (compressed == 0)
        return 1.0;
    return static_cast<double>(original) /
           static_cast<double>(compressed);
}

} // namespace rssd::compress
