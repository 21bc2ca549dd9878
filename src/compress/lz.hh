/**
 * @file
 * Byte-oriented LZ77-family compressor used by the RSSD offload
 * engine before log segments are encrypted and shipped over NVMe-oE.
 *
 * Format (self-contained, no external library):
 *   A stream of tokens. Each token starts with a control byte:
 *     0x00..0x7f : literal run of (ctrl + 1) bytes follows (1..128)
 *     0x80..0xff : match; length = (ctrl & 0x7f) + kMinMatch,
 *                  followed by a 2-byte little-endian distance (1..65535)
 * The compressor hashes each position's next 4 bytes into a table of
 * 2^15 single slots, each holding the most recent position with that
 * hash (no chain), and parses greedily: it takes the slot's position
 * as the match candidate and extends a match as far as it goes. The
 * slot semantics and the greedy parse decide every output byte, so
 * they are wire format as much as the token layout is: a speed-up
 * must keep both, and the golden digests in tests/compress/lz_test.cc
 * fail on any change. Decompression is exact; roundtrip is tested for
 * all inputs.
 */

#ifndef RSSD_COMPRESS_LZ_HH
#define RSSD_COMPRESS_LZ_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rssd::compress {

using Bytes = std::vector<std::uint8_t>;

/** Minimum match length encoded by the format. */
constexpr std::size_t kMinMatch = 4;

/** Maximum match length encoded by a single token. */
constexpr std::size_t kMaxMatch = kMinMatch + 0x7f;

/** Maximum backward distance (2-byte field). */
constexpr std::size_t kMaxDistance = 65535;

/** Compress @p input; always succeeds (worst case mild expansion). */
Bytes lzCompress(const Bytes &input);

/**
 * Decompress a buffer produced by lzCompress.
 * @param expected_size  size of the original input, stored by the
 *                       caller's framing (segments record it).
 * @return the decompressed bytes.
 * Calls rssd::panic on malformed input.
 */
Bytes lzDecompress(const Bytes &input, std::size_t expected_size);

/** Compression ratio helper: original / compressed (>= 1 is good). */
double compressionRatio(std::size_t original, std::size_t compressed);

} // namespace rssd::compress

#endif // RSSD_COMPRESS_LZ_HH
