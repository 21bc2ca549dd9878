/**
 * @file
 * Evidence ingestion for cluster-side forensics: stream every
 * device's segment chain out of the BackupCluster's shards through
 * BackupStore::readStream(), the store's one reader of stored
 * evidence, which verifies hash chain + HMACs incrementally.
 *
 * The scanner runs where the evidence lives (the analysis host is
 * co-located with the shards), so nothing crosses a wire here — the
 * cost that matters is verification and replay work, which the
 * ScanPassCost counters account for per pass.
 *
 * Incrementality is the design center: each stream keeps a resumable
 * cursor (position in the stream's chain), and the replayed entries
 * of the verified prefix are cached. The chain state that extends
 * the verification lives in the source store's verified-prefix
 * record, not here. A re-scan after new segments arrive reads only
 * the new suffix — O(new), not O(all) — and the per-pass cost
 * counters in the ForensicsReport pin that claim in tests.
 */

#ifndef RSSD_FORENSICS_EVIDENCE_HH
#define RSSD_FORENSICS_EVIDENCE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "log/chain_verify.hh"
#include "obs/metrics.hh"
#include "remote/backup_cluster.hh"

namespace rssd::forensics {

using remote::DeviceId;

/** Work done by one scan() pass (the incremental cost model). */
struct ScanPassCost
{
    std::uint64_t streamsScanned = 0;
    std::uint64_t segmentsVerified = 0; ///< the new suffix, this pass
    std::uint64_t segmentsCached = 0;   ///< skipped: verified prefix
    std::uint64_t bytesVerified = 0;
    std::uint64_t entriesReplayed = 0;

    void
    add(const ScanPassCost &o)
    {
        streamsScanned += o.streamsScanned;
        segmentsVerified += o.segmentsVerified;
        segmentsCached += o.segmentsCached;
        bytesVerified += o.bytesVerified;
        entriesReplayed += o.entriesReplayed;
    }
};

/** One device stream's verified evidence (the prefix cache). */
struct StreamEvidence
{
    DeviceId device = 0;
    /** The replica the scanner currently reads from (the read-side
     *  vote winner). */
    remote::ShardId shard = 0;

    // -- Replica view ------------------------------------------------------

    /** Pinned replica-set size (R). */
    std::uint32_t replicas = 0;
    /** Live members of the set at the last pass. */
    std::uint32_t replicasAlive = 0;
    /** Live replicas whose chain tail agrees with the source's —
     *  O(1) per replica, the tail digest authenticates the whole
     *  history (majority agreement, the ASPIS voting idiom). */
    std::uint32_t tailVotes = 0;
    /** Times the scanner abandoned a dead or faulted source copy
     *  and re-verified the stream from another replica. */
    std::uint64_t failovers = 0;

    /** False once a segment failed verification; the entry cache
     *  then holds exactly the trustworthy prefix. */
    bool intact = true;
    log::ChainFault fault = log::ChainFault::None;

    /** Segments verified (the cursor into the stream's chain). */
    std::uint64_t segmentsVerified = 0;

    /** Wire bytes of the verified prefix (restore-planning input). */
    std::uint64_t bytesVerified = 0;

    // -- Retention-GC view -------------------------------------------------

    /** Segments the store expired from this stream (cumulative). */
    std::uint64_t segmentsPruned = 0;

    /** Log entries expired with them (the pruned horizon: the first
     *  surviving logSeq — from the signed prune record). */
    std::uint64_t entriesPruned = 0;

    /** Segments expired before this scanner ever verified them —
     *  evidence the analysis will never see (pruning outpaced the
     *  scan). Entries of segments verified *before* their expiry
     *  stay in the cache and are not counted here. */
    std::uint64_t segmentsPrunedUnseen = 0;

    /** Times the scanner resumed from a signed prune record (once
     *  at first contact with a pruned stream, again whenever the
     *  horizon overtakes the cursor). */
    std::uint64_t reanchors = 0;

    /** Replayed log entries of the verified prefix, oldest first.
     *  On a pruned stream the replay starts at the horizon. */
    std::vector<log::LogEntry> entries;
};

class EvidenceScanner
{
  public:
    explicit EvidenceScanner(const remote::BackupCluster &cluster);

    EvidenceScanner(const EvidenceScanner &) = delete;
    EvidenceScanner &operator=(const EvidenceScanner &) = delete;

    /**
     * Scan every attached device's stream, verifying segments
     * appended since the previous pass (everything, on the first
     * pass). Each stream is read from one *source replica* —
     * preferring any live chain-verifying copy — and cross-checked
     * against the other live replicas by tail voting; a dead or
     * faulted source fails over to another copy (re-verified from
     * its genesis, an honestly-counted cost).
     * @return the cost of this pass alone.
     */
    ScanPassCost scan();

    /** Devices seen so far, ascending id (deterministic order). */
    std::vector<DeviceId> devices() const;

    const StreamEvidence &evidence(DeviceId device) const;

    std::uint64_t passes() const { return passes_; }
    const ScanPassCost &lastPass() const { return lastPass_; }
    const ScanPassCost &total() const { return total_; }

    const remote::BackupCluster &cluster() const { return cluster_; }

    /** Register the cumulative scan-cost counters under @p prefix
     *  (e.g. "forensics."); sampled at snapshot time. */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

  private:
    struct StreamState
    {
        StreamEvidence evidence;
        /** Absolute position of the next segment to read, counted
         *  from the stream's genesis (pruned + verified). Stable
         *  across prunes, unlike indices into the shrinking stored
         *  list. Per-copy state, like the entry cache: a failover
         *  resets both. */
        std::uint64_t absPos = 0;
        /** Source replica (kNoShard until the first pass). */
        remote::ShardId source = remote::kNoShard;
    };

    /** Abandon @p st's current copy and restart on @p replica. */
    static void failOver(StreamState &st, remote::ShardId replica);

    const remote::BackupCluster &cluster_;
    /** Keyed by device id (== StreamId); ordered for determinism. */
    std::map<DeviceId, StreamState> streams_;
    std::uint64_t passes_ = 0;
    ScanPassCost lastPass_;
    ScanPassCost total_;
};

} // namespace rssd::forensics

#endif // RSSD_FORENSICS_EVIDENCE_HH
