/**
 * @file
 * The remote cloud/storage-server endpoint of the NVMe-oE path.
 *
 * An append-only store of sealed segments. Ingest enforces the trust
 * properties the paper's post-attack analysis relies on:
 *   - HMAC authenticity (only the paired device key seals segments),
 *   - strict segment ordering (each segment must name the previous
 *     segment id and extend its log-chain digest),
 *   - capacity budgeting (the knob behind Figure 2's retention time).
 *
 * The host-visible contract is append-only: ransomware that owns the
 * host OS has no path to the store (hardware isolation), and even the
 * device can only append. The *operator-side* retention lifecycle is
 * the one exception: with GC enabled, the store itself expires the
 * oldest sealed segments of a stream past the retention window (age)
 * or under capacity pressure (watermarks), exactly the Figure 2
 * trade-off — retention time = remote capacity / ingest rate. Every
 * prune re-anchors the stream with a signed PruneRecord so the
 * surviving suffix still verifies, and eviction is suspicion-aware:
 * detector-flagged streams carry eviction holds, and per-stream
 * quotas stop one flooding tenant from consuming its neighbours'
 * retention windows (the flooder can only shorten its *own* window
 * to quota / ingest-rate — never a victim's).
 *
 * Multiplexing: a store serves one *or many* device streams. Chain
 * state (last segment id, chain tail) and the verification codec are
 * kept per stream, never globally — a fleet of devices sharing one
 * shard cannot splice segments into each other's histories, and one
 * device's chain violation leaves every other stream ingestable. The
 * single-device constructor registers its codec as stream 0, so the
 * legacy one-client API is the one-stream special case.
 *
 * Verify once: each stream keeps a verified-prefix record, the
 * SegmentChainVerifier state after its first k stored segments.
 * readStream() is the one reader of stored evidence: inside the
 * record it only decrypts, past it it extends the record. Every
 * chain walk (verifyStreamChain(), and so the fleet audit and
 * replica selection), the forensics scanner and DeviceHistory read
 * through it. Paths that change stored bytes or the anchor shrink or
 * reset the record, so its verdicts equal a walk from scratch.
 */

#ifndef RSSD_REMOTE_BACKUP_STORE_HH
#define RSSD_REMOTE_BACKUP_STORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "log/chain_verify.hh"
#include "log/segment.hh"
#include "net/transport.hh"
#include "obs/trace.hh"

namespace rssd::remote {

/** Identifies one device's segment stream within a shared store. */
using StreamId = std::uint64_t;

/** The stream the single-device API reads and writes. */
constexpr StreamId kDefaultStream = 0;

/** Why the most recent ingest was rejected. */
enum class RejectReason : std::uint8_t {
    None,
    BadAuthentication, ///< HMAC or CRC mismatch
    ChainViolation,    ///< out-of-order or spliced segment
    CapacityExceeded,  ///< remote budget exhausted
    UnknownStream,     ///< no key registered for the stream
};

const char *rejectReasonName(RejectReason r);

/**
 * Retention-window GC policy. Disabled by default: the store then
 * behaves exactly like the original append-forever budget (ingest is
 * rejected with CapacityExceeded once the budget is exhausted).
 */
struct RetentionPolicy
{
    /** Master switch for both age- and watermark-driven expiry. */
    bool gcEnabled = false;

    /** Age horizon: a segment older than this (by ingest arrival
     *  time) is expired on the next GC pass. 0 = no age expiry. */
    Tick retentionWindow = 0;

    /** Pressure eviction triggers above this occupancy fraction
     *  (and always when an arrival would overflow the budget)... */
    double gcHighWater = 0.90;

    /** ...and prunes oldest-first down to this fraction. */
    double gcLowWater = 0.75;

    /**
     * Per-stream quota as a multiple of the fair share
     * (capacityBytes / registered streams). Pressure eviction takes
     * from the most over-quota stream first — even a held one: the
     * hold protects a flagged stream's evidence only up to its
     * quota, so a flooding attacker can shorten its own retention
     * window but never starve its neighbours'. Keep this at or
     * below gcHighWater: then occupancy above the high watermark
     * implies (pigeonhole) some stream is over quota, so pressure
     * eviction always makes progress and ingest can never deadlock
     * against a fully-held tenant set. <= 0 disables quota
     * targeting (pressure eviction is then globally oldest-first
     * over unheld streams only, and a fully-held store can
     * legitimately fill up).
     */
    double streamQuotaFraction = 0.85;
};

/** Store configuration. */
struct BackupStoreConfig
{
    /** Remote capacity budget in bytes (sealed wire bytes: header +
     *  payload, i.e. SealedSegment::wireSize()). */
    std::uint64_t capacityBytes = 4ull * units::TiB;

    /** Per-segment server-side processing (verify + persist). */
    Tick processingTime = 50 * units::US;

    /** Retention lifecycle (off by default). */
    RetentionPolicy retention;
};

/** Ingest/verification counters. */
struct BackupStoreStats
{
    std::uint64_t segmentsAccepted = 0;
    std::uint64_t segmentsRejected = 0;
    /** Re-offers of the stream's current tail segment, acked without
     *  storing twice (replicated ingest converges through these). */
    std::uint64_t duplicateSegments = 0;
    std::uint64_t bytesStored = 0;
    std::uint64_t pagesStored = 0;
    std::uint64_t entriesStored = 0;

    // -- Retention GC ---------------------------------------------------
    std::uint64_t segmentsPruned = 0;
    std::uint64_t bytesPruned = 0;   ///< wire bytes freed by GC
    std::uint64_t entriesPruned = 0; ///< log entries expired with them
    std::uint64_t agePrunes = 0;     ///< segments expired by window
    std::uint64_t pressurePrunes = 0;///< segments evicted by watermark

    // -- Chain walks ----------------------------------------------------
    /** Segments readStream() actually verified (MAC, decrypt, chain
     *  rules). Segments its verified-prefix record already covered
     *  are not counted, so a re-walk of an unchanged store adds 0.
     *  Host-work accounting only; no report emits it. */
    std::uint64_t segmentsChainWalked = 0;
};

/**
 * The backup store. Holds *sealed* segments; opening them (for
 * recovery and analysis) requires the shared device key, which the
 * operator supplies out of band.
 */
class BackupStore : public net::CapsuleTarget
{
  public:
    /** Single-device store: @p codec is registered as stream 0. */
    BackupStore(const BackupStoreConfig &config,
                const log::SegmentCodec &codec);

    /** Multi-stream store (cluster shard): starts with no streams;
     *  every device key arrives via registerStream(). */
    explicit BackupStore(const BackupStoreConfig &config);

    /**
     * Admit another device stream, pairing it with the codec derived
     * from that device's key. Registration is the out-of-band key
     * exchange of the paper's deployment model; ingest into an
     * unregistered stream is rejected, never trusted.
     */
    void registerStream(StreamId stream, const log::SegmentCodec &codec);
    bool hasStream(StreamId stream) const;

    // -- net::CapsuleTarget -------------------------------------------

    /** Single-device path: ingest into stream 0. */
    bool ingestSegment(const log::SealedSegment &segment, Tick arrive_at,
                       Tick &ack_ready_at) override;

    /** Multiplexed path: ingest into @p stream. */
    bool ingestSegment(StreamId stream, const log::SealedSegment &segment,
                       Tick arrive_at, Tick &ack_ready_at);

    // -- Retention GC ------------------------------------------------------

    /**
     * Run the retention lifecycle at time @p now: expire segments
     * older than the retention window, then (if occupancy is above
     * the high watermark) evict under pressure down to the low
     * watermark. Ingest runs this automatically on every arrival;
     * the public entry point exists for operators, benches and
     * tests. No-op unless the policy enables GC.
     */
    void runRetentionGc(Tick now);

    /**
     * Suspicion-aware eviction hold: while held, a stream is exempt
     * from age expiry and from oldest-first pressure eviction (the
     * over-quota backstop still applies — see RetentionPolicy).
     * Detectors flag a stream the moment they alarm; the hold keeps
     * the pre-attack evidence inside the window until forensics and
     * recovery have run.
     */
    void setEvictionHold(StreamId stream, bool held);
    bool evictionHold(StreamId stream) const;
    std::uint64_t heldStreams() const;

    /** Signed re-anchor record of @p stream, nullptr if never
     *  pruned. Cumulative across prunes (at most one per stream). */
    const log::PruneRecord *pruneRecordOf(StreamId stream) const;

    // -- Replication / migration ------------------------------------------

    /**
     * Adopt a signed prune record as @p stream's chain anchor. This
     * is the migration primitive: a replica receiving a stream whose
     * source already pruned its prefix does not need the pruned
     * segments — the record substitutes for them exactly as it does
     * for verification (resumeFrom()), so the migrated suffix is
     * just a re-anchored chain. The record's signature is verified
     * with the stream's registered codec; adoption is only legal on
     * a stream with no history yet (fresh replica).
     */
    void adoptPruneRecord(StreamId stream,
                          const log::PruneRecord &record);

    /**
     * Drop @p stream entirely: free its stored segments and forget
     * its chain state and registration. This is migration-out, not
     * retention GC — the data lives on elsewhere, so nothing is
     * counted as pruned and no prune record is produced.
     */
    void releaseStream(StreamId stream);

    /** Chain-state summary used for replica tail voting. */
    struct StreamTail
    {
        std::uint64_t lastId = log::kNoSegment;
        crypto::Digest chainTail{};
        bool haveTail = false;

        bool
        operator==(const StreamTail &o) const
        {
            return lastId == o.lastId && haveTail == o.haveTail &&
                   (!haveTail || chainTail == o.chainTail);
        }
    };
    StreamTail streamTail(StreamId stream) const;

    /** One stored segment as readStream() hands it over: the sealed
     *  bytes and their opened contents (the visitor may move from
     *  the latter). */
    using SegmentVisitor =
        std::function<void(const log::SealedSegment &sealed,
                           log::Segment &opened)>;

    /**
     * The one reader of stored evidence. Hands @p visit every stored
     * segment of @p stream from position @p from of
     * streamSegments(@p stream) on, in chain order. Inside the
     * verified-prefix record it only decrypts; past it, it extends
     * the record (HMAC, CRC, order, anchor, entry chain) and hands
     * over the segment that walk opened, so nothing is decoded
     * twice. Positions before @p from that the record does not yet
     * cover are walked but not visited. The verdict equals that of a
     * walk from the stream's anchor (genesis or its signed prune
     * record). Stops at the first failure and returns false, leaving
     * the record at the last good segment, so the next read fails
     * the same way; chainFault() says why.
     */
    bool readStream(StreamId stream, std::uint64_t from,
                    const SegmentVisitor &visit) const;

    /**
     * readStream() with no visitor: extends the verified-prefix
     * record over the whole stream, so a second walk of an unchanged
     * stream does no work. The per-stream half of verifyFullChain().
     */
    bool verifyStreamChain(StreamId stream) const;

    /** Why the last readStream() of @p stream failed: a segment's
     *  fault, or BadAuthentication for a prune record whose signature
     *  does not verify. None after a read that succeeded. */
    log::ChainFault chainFault(StreamId stream) const;

    /**
     * Leading segments of streamSegments(@p stream) that the
     * verified-prefix record covers: a chain walk from the stream's
     * anchor verified them (HMAC, CRC, order, anchor, entry chain)
     * and nothing has changed their bytes or the anchor since.
     * readStream() skips their MAC; the integrity scrub, which hunts
     * rot no API call announced, does not consult the record.
     */
    std::uint64_t verifiedPrefix(StreamId stream) const;

    /**
     * Bit-rot fault (tests / fault harness): flip @p byte_count
     * payload bytes starting at @p first_byte (clamped to the
     * payload) in the @p k-th live stored segment of @p stream. The
     * tail metadata — segment ids, anchors, the stream's chain tail
     * — is untouched, so ingest keeps flowing and tail votes still
     * agree; only a payload (HMAC) verification of the stored copy
     * catches it. This is exactly the silent corruption integrity
     * scrubbing exists to find.
     */
    void injectBitRot(StreamId stream, std::uint64_t k,
                      std::size_t first_byte, std::size_t byte_count);

    // -- Quarantine (anti-entropy scrub) -----------------------------------

    /**
     * Mark this store's copy of @p stream as quarantined: the scrub
     * found it corrupt (or diverged from the replica majority), so
     * readers must prefer another replica and the repair engine will
     * rebuild the copy from a healthy source. Quarantine is a
     * per-copy verdict — dropping and re-registering the stream
     * (the rebuild) clears it.
     */
    void setQuarantined(StreamId stream, bool quarantined);
    bool quarantined(StreamId stream) const;

    /** Streams of this store currently under quarantine. */
    std::uint64_t quarantinedStreams() const;

    /** Cumulative segments pruned from @p stream. */
    std::uint64_t prunedSegments(StreamId stream) const;

    /** Wire bytes @p stream currently occupies. */
    std::uint64_t streamLiveBytes(StreamId stream) const;

    /** Current per-stream quota in bytes (~0ull when disabled). */
    std::uint64_t streamQuotaBytes() const;

    // -- Recovery / analysis side ----------------------------------------

    /** Storage slots allocated, dense from 0 (arrival order until
     *  the retention GC recycles a tombstoned slot for a later
     *  arrival — see segmentPruned()). Memory is bounded by the
     *  capacity budget, not by segments ever ingested. */
    std::size_t segmentCount() const { return segments_.size(); }

    /** Segments currently stored (accepted minus pruned). */
    std::uint64_t liveSegmentCount() const { return liveSegments_; }

    const std::vector<log::SealedSegment> &segments() const
    {
        return segments_;
    }

    /** True if storage slot @p idx was expired by retention GC. */
    bool segmentPruned(std::uint64_t idx) const;

    /** Sealed segment by storage index (dense from 0, arrival
     *  order). panic()s on a pruned slot. */
    const log::SealedSegment &sealedSegment(std::uint64_t idx) const;

    /** Stream that stored segment @p idx belongs to. */
    StreamId streamOf(std::uint64_t idx) const;

    /** Open (decrypt + decompress) a stored segment. */
    log::Segment openSegment(std::uint64_t idx) const;

    /** All registered stream ids, ascending (deterministic). */
    std::vector<StreamId> streamIds() const;

    /** Storage indices of @p stream's segments, in chain order.
     *  A deque: retention GC prunes from the front in O(1). */
    const std::deque<std::uint32_t> &
    streamSegments(StreamId stream) const;

    /**
     * Verification codec registered for @p stream. The trusted
     * analysis host reads evidence where it lives; the codec it
     * verifies with is the one the out-of-band key exchange
     * registered at attach time.
     */
    const log::SegmentCodec &streamCodec(StreamId stream) const;

    /**
     * Verify the entire stored history: every HMAC, each stream's
     * segment chain, and the per-entry log hash chain across segment
     * boundaries. @return true iff the evidence chain is intact.
     */
    bool verifyFullChain() const;

    /** Bytes of remote budget consumed. */
    std::uint64_t usedBytes() const { return used_; }
    std::uint64_t capacityBytes() const
    {
        return config_.capacityBytes;
    }

    RejectReason lastRejectReason() const { return lastReject_; }
    const BackupStoreStats &stats() const { return stats_; }

    /** Observability: retention prunes emit tick-stamped instants on
     *  the cluster track; @p tid is the owning shard's trace lane.
     *  A null sink detaches (tracing is read-only either way). */
    void
    attachTrace(obs::TraceSink *sink, std::uint64_t tid)
    {
        trace_ = sink;
        traceTid_ = tid;
    }

  private:
    /** Per-stream chain state — the fix for the former single-client
     *  globals (one lastId/chainTail for the whole store). */
    struct StreamState
    {
        log::SegmentCodec codec;
        std::uint64_t lastId = log::kNoSegment;
        crypto::Digest chainTail{};
        bool haveTail = false;
        std::deque<std::uint32_t> stored; ///< live storage indices

        // -- Retention state ---------------------------------------------
        std::optional<log::PruneRecord> prune;
        bool evictionHold = false;
        std::uint64_t liveBytes = 0; ///< wire bytes currently stored

        // -- Anti-entropy state ------------------------------------------
        bool quarantined = false; ///< scrub verdict: copy is suspect

        // -- Verified-prefix record ----------------------------------------
        /** Chain-walk state after the first `verifiedCount` entries
         *  of `stored`, anchored at genesis or at `prune`; empty
         *  until the first walk. Mutable: the const readers extend
         *  it (the process has no threads). Ingest appends past it;
         *  a prune inside it shrinks it; every other change to
         *  stored bytes or to the anchor resets it. */
        mutable std::optional<log::SegmentChainVerifier> verified;
        mutable std::uint64_t verifiedCount = 0;
        /** Verdict of the last readStream() (chainFault()). */
        mutable log::ChainFault fault = log::ChainFault::None;

        void
        forgetVerified()
        {
            verified.reset();
            verifiedCount = 0;
        }

        explicit StreamState(const log::SegmentCodec &c) : codec(c) {}
    };

    bool reject(RejectReason why);

    /** Tombstone the oldest stored segment of @p st, re-signing the
     *  stream's prune record. @p pressure selects the stats bucket.
     *  Returns false, changing nothing, when that segment fails its
     *  MAC: the store never signs a prune record for bytes it cannot
     *  authenticate (the scrub quarantines the copy instead). */
    bool pruneOldest(StreamId stream, StreamState &st, Tick now,
                     bool pressure);

    /** Age-based expiry over all unheld streams. */
    void expireByAge(Tick now);

    /** Watermark eviction: free space until @p incoming_bytes fits
     *  under the low watermark (or nothing prunable remains). */
    void evictUnderPressure(Tick now, std::uint64_t incoming_bytes);

    BackupStoreConfig config_;
    /** Ordered map: verifyFullChain() iterates streams
     *  deterministically (fleet reports are byte-reproducible). */
    std::map<StreamId, StreamState> streams_;
    std::vector<log::SealedSegment> segments_;
    std::vector<StreamId> segmentStream_; ///< parallel to segments_
    std::vector<Tick> segmentArrival_;    ///< parallel to segments_
    std::vector<std::uint8_t> segmentPruned_; ///< parallel tombstones
    std::vector<std::uint32_t> freeSlots_; ///< tombstones to recycle
    std::uint64_t liveSegments_ = 0;
    std::uint64_t used_ = 0;
    RejectReason lastReject_ = RejectReason::None;
    /** Mutable for segmentsChainWalked, which the const chain walk
     *  counts into. */
    mutable BackupStoreStats stats_;
    obs::TraceSink *trace_ = nullptr;
    std::uint64_t traceTid_ = 0;
};

} // namespace rssd::remote

#endif // RSSD_REMOTE_BACKUP_STORE_HH
