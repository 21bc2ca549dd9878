/**
 * @file
 * Incremental verification of a sealed-segment chain — the one
 * implementation of the trust check everything else builds on.
 *
 * A verifier consumes one stream's sealed segments in storage order
 * and checks, per segment:
 *   - HMAC authenticity under the stream's codec,
 *   - segment ordering (prevId must name the last verified segment),
 *   - chain-anchor continuity (chainAnchor extends the previous
 *     segment's chainTail),
 *   - the per-entry hash chain inside the segment, and that the last
 *     entry's digest equals the advertised chainTail.
 *
 * Each segment is MAC'd once per walk: verifyNext() checks the HMAC
 * and CRC, then decrypts through SegmentCodec::openVerified() rather
 * than open(), which would MAC the same bytes again.
 *
 * The verifier is *resumable*: its state after segment k is exactly
 * what is needed to verify segment k+1, so a caller that keeps the
 * verifier alive pays only for new segments when more evidence
 * arrives — the O(new) re-analysis property the cluster-side
 * forensics subsystem is built on. BackupStore keeps one such state
 * per stored stream as its verified-prefix record; its one reader,
 * BackupStore::readStream(), extends that record, and every chain
 * walk, the forensics scanner and DeviceHistory read through it.
 * There is no second verifier and no second copy of the chain rules
 * to drift.
 */

#ifndef RSSD_LOG_CHAIN_VERIFY_HH
#define RSSD_LOG_CHAIN_VERIFY_HH

#include <cstdint>

#include "log/segment.hh"

namespace rssd::log {

/** Why the most recent verifyNext() failed. */
enum class ChainFault : std::uint8_t {
    None,
    BadAuthentication, ///< HMAC or CRC mismatch
    BrokenOrder,       ///< prevId does not name the last segment
    BrokenAnchor,      ///< chainAnchor does not extend the last tail
    BrokenEntryChain,  ///< per-entry hash chain does not re-derive
};

const char *chainFaultName(ChainFault f);

class SegmentChainVerifier
{
  public:
    /**
     * Verify the next sealed segment of the stream. On success the
     * verifier advances (and @p opened_out, if non-null, receives
     * the decrypted segment); on failure the verifier state is
     * unchanged and fault() says why. Once a segment fails, the
     * suffix from that point is untrusted — callers typically stop.
     */
    bool verifyNext(const SealedSegment &sealed,
                    const SegmentCodec &codec,
                    Segment *opened_out = nullptr);

    /**
     * Re-anchor the verifier at a retention-GC prune horizon: after
     * this, the next segment must name @p record's last pruned
     * segment as its predecessor and extend the pruned chain's tail
     * digest. The record's signature is checked first (it is the
     * trusted substitute for the pruned prefix); a bad signature
     * sets fault() = BadAuthentication and leaves the verifier
     * unchanged. BackupStore calls it on a fresh verifier over an
     * already-pruned stream.
     */
    bool resumeFrom(const PruneRecord &record,
                    const SegmentCodec &codec);

    /** Segments verified so far. */
    std::uint64_t segmentsVerified() const { return count_; }

    /** Payload + header bytes verified so far. */
    std::uint64_t bytesVerified() const { return bytes_; }

    /** Log entries whose hash chain re-derived so far. */
    std::uint64_t entriesVerified() const { return entries_; }

    ChainFault fault() const { return fault_; }

    /** Chain digest the next segment's anchor must extend (only
     *  meaningful once segmentsVerified() > 0). */
    const crypto::Digest &chainTail() const { return tail_; }

  private:
    std::uint64_t expectPrev_ = kNoSegment;
    crypto::Digest tail_{};
    bool haveTail_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t entries_ = 0;
    ChainFault fault_ = ChainFault::None;
};

} // namespace rssd::log

#endif // RSSD_LOG_CHAIN_VERIFY_HH
