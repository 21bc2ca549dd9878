/**
 * @file
 * Offload segments: the unit in which RSSD ships retained pages and
 * operation-log entries to the remote store over NVMe-oE.
 *
 * A Segment is the plaintext bundle (log entries + retained page
 * contents, all in time order). SegmentCodec seals it for the wire:
 * serialize -> LZ compress -> ChaCha20 encrypt -> HMAC-SHA256, so
 * segments leave the device "in a compressed and encrypted format"
 * exactly as the paper describes. The remote store verifies the HMAC
 * and the segment chain (each segment names its predecessor and the
 * log-chain digest it extends) before accepting.
 */

#ifndef RSSD_LOG_SEGMENT_HH
#define RSSD_LOG_SEGMENT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/chacha20.hh"
#include "crypto/sha256.hh"
#include "log/oplog.hh"
#include "log/retention.hh"

namespace rssd::log {

using Bytes = std::vector<std::uint8_t>;

/** Sentinel segment id for "no predecessor". */
constexpr std::uint64_t kNoSegment = ~0ull;

/** A retained page's payload as carried in a segment. */
struct PageRecord
{
    Lpa lpa = 0;
    std::uint64_t dataSeq = 0;
    Tick writtenAt = 0;
    Tick invalidatedAt = 0;
    RetainCause cause = RetainCause::Overwrite;
    Bytes content; ///< may be empty in address-only experiments
};

/** Plaintext segment contents. */
struct Segment
{
    std::uint64_t id = 0;
    std::uint64_t prevId = kNoSegment;
    /** Log-chain digest of the last entry in this segment (anchors
     *  chain continuation for the next segment). */
    crypto::Digest chainTail{};
    /** Log-chain digest immediately before the first entry. */
    crypto::Digest chainAnchor{};
    /**
     * Owned entries. CAUTION: empty (not the truth) on a segment
     * that went through borrowEntries() — read via entrySpan(),
     * which is correct for both owned and borrowed segments.
     * Borrowed segments exist only transiently on the offload
     * engine's seal path; segments from deserialize() always own.
     */
    std::vector<LogEntry> entries;
    std::vector<PageRecord> pages;

    /**
     * Borrow the entry list from external contiguous storage (the
     * operation log's tail) instead of copying it into `entries`.
     * The storage must stay alive and unmodified until the segment
     * has been serialized/sealed. Zero-copy path for the offload
     * engine; tests and deserialize keep using the owned vector.
     */
    void
    borrowEntries(std::span<const LogEntry> view)
    {
        borrowedEntries_ = view;
        borrowed_ = true;
    }

    /** The entries this segment carries: borrowed view if set. */
    std::span<const LogEntry>
    entrySpan() const
    {
        return borrowed_ ? borrowedEntries_
                         : std::span<const LogEntry>(entries);
    }

    /** Exact byte size serialize() will produce. */
    std::size_t serializedSize() const;

    Bytes serialize() const;
    static Segment deserialize(const Bytes &raw);

  private:
    std::span<const LogEntry> borrowedEntries_{};
    bool borrowed_ = false;
};

/** Encrypted, authenticated wire form of a segment. */
struct SealedSegment
{
    std::uint64_t id = 0;
    std::uint64_t prevId = kNoSegment;
    crypto::Digest chainTail{};
    crypto::Digest chainAnchor{};
    std::uint64_t rawSize = 0;     ///< plaintext serialized size
    Bytes payload;                 ///< compressed + encrypted
    crypto::Digest hmac{};         ///< over header fields + payload
    std::uint32_t crc = 0;         ///< CRC32C of payload (link check)

    /** Bytes on the wire (header + payload). */
    std::uint64_t wireSize() const { return payload.size() + 128; }
};

/**
 * Chain re-anchor record. When the remote store garbage-collects the
 * oldest sealed segments of a stream past its retention window, it
 * writes one of these (signed under the stream's device key, which
 * only the trusted domain holds): the record names the last pruned
 * segment and carries the chain digest its successor must extend, so
 * verification of the surviving suffix starts here instead of at
 * genesis. Counters are cumulative across prunes — a stream has at
 * most one record, updated and re-signed on every prune.
 */
struct PruneRecord
{
    std::uint64_t stream = 0;         ///< StreamId being re-anchored
    std::uint64_t upToId = 0;         ///< last pruned segment id
    std::uint64_t segmentsPruned = 0; ///< cumulative segments expired
    std::uint64_t entriesPruned = 0;  ///< cumulative log entries lost
                                      ///< (== first surviving logSeq)
    std::uint64_t bytesPruned = 0;    ///< cumulative wire bytes freed
    Tick prunedAt = 0;                ///< time of the latest prune
    crypto::Digest anchor{};          ///< chainTail of last pruned seg
    crypto::Digest hmac{};            ///< over all fields above
};

/**
 * Seals and opens segments with a device key. The key never leaves
 * the trusted domain (firmware + remote store).
 */
class SegmentCodec
{
  public:
    explicit SegmentCodec(const crypto::Key256 &key)
        : key_(key), hmac_(key.data(), key.size())
    {
    }

    /** Derive a codec from a passphrase (tests / examples). */
    static SegmentCodec fromSeed(const std::string &seed);

    SealedSegment seal(const Segment &segment) const;

    /**
     * Verify authenticity and decrypt: verify() plus openVerified().
     * panic()s on HMAC/CRC mismatch in trusted-path code; use
     * verify() first for adversarial inputs. Stored evidence is read
     * through BackupStore::readStream(), which decides where the MAC
     * may be skipped.
     */
    Segment open(const SealedSegment &sealed) const;

    /**
     * Decrypt, LZ-decode and deserialize *without* checking the
     * HMAC or CRC. Only for bytes whose verify() already passed and
     * that nothing has mutated since: the chain verifier right after
     * its own MAC, and BackupStore inside a stream's verified-prefix
     * record. A custody primitive: rssd_lint C1 confines it to the
     * codec, the verifier and the store.
     */
    Segment openVerified(const SealedSegment &sealed) const;

    /** Check the HMAC without decrypting. */
    bool verify(const SealedSegment &sealed) const;

    /** Sign a prune record (fills @p record.hmac). */
    void sealPrune(PruneRecord &record) const;

    /** Check a prune record's signature. */
    bool verifyPrune(const PruneRecord &record) const;

  private:
    /** Fixed-size authenticated header: id, prevId, chain digests,
     *  raw and payload sizes. */
    static constexpr std::size_t kHeaderSize = 8 + 8 + 32 + 32 + 8 + 8;
    using Header = std::array<std::uint8_t, kHeaderSize>;
    Header headerBytes(const SealedSegment &sealed) const;

    /** HMAC over header + payload without concatenating them. */
    crypto::Digest macOf(const SealedSegment &sealed) const;

    crypto::Key256 key_;
    /** Keyed HMAC schedule: the two key blocks are hashed once per
     *  codec, not once per segment. */
    crypto::HmacSha256 hmac_;
};

/** Result of handing a sealed segment to a sink. */
struct SubmitResult
{
    bool accepted = false;
    Tick ackAt = 0; ///< when the remote acknowledgment arrives
};

/**
 * Where sealed segments go. Implemented by the NVMe-oE transport
 * (production path) and by in-memory fakes in tests.
 */
class SegmentSink
{
  public:
    virtual ~SegmentSink() = default;
    virtual SubmitResult submitSegment(const SealedSegment &segment,
                                       Tick now) = 0;
};

} // namespace rssd::log

#endif // RSSD_LOG_SEGMENT_HH
