/**
 * @file
 * DeviceHistory: the merged view of an RSSD's full operation history
 * — every sealed segment fetched back from the remote store plus the
 * local (not-yet-offloaded) log tail and retained pages.
 *
 * Both the recovery engine and the post-attack analyzer operate on
 * this view; building it models the fetch traffic over the NVMe-oE
 * link, which is where the paper's recovery/analysis timings come
 * from.
 */

#ifndef RSSD_CORE_HISTORY_HH
#define RSSD_CORE_HISTORY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rssd_device.hh"
#include "log/oplog.hh"
#include "log/segment.hh"
#include "remote/backup_cluster.hh"

namespace rssd::core {

/** Where a data version's content can be found. */
enum class VersionSource : std::uint8_t {
    LiveOnDevice,   ///< currently mapped page
    HeldOnDevice,   ///< retained page still on local flash
    RemoteSegment,  ///< page record in a fetched segment
};

/** One recoverable data version. */
struct VersionRecord
{
    flash::Lpa lpa = 0;
    std::uint64_t dataSeq = 0;
    VersionSource source = VersionSource::RemoteSegment;
    flash::Ppa ppa = flash::kInvalidPpa; ///< for on-device sources
    const log::PageRecord *remote = nullptr; ///< for remote source
};

/** Cost accounting for building the history. */
struct HistoryCost
{
    std::uint64_t segmentsFetched = 0;
    std::uint64_t bytesFetched = 0;
    Tick fetchCompleteAt = 0;
};

class DeviceHistory
{
  public:
    /**
     * Build the merged history at the current simulated time.
     * Fetches (and keeps open) every remote segment, read through
     * BackupStore::readStream() and panic()ing when the stored chain
     * does not verify. Single-device mode: the device owns its
     * in-process BackupStore.
     */
    explicit DeviceHistory(RssdDevice &device);

    /**
     * Fleet mode: the device's stream lives in shared (cluster
     * shard) stores. The read source is chosen among the device's
     * live replicas — the first chain-verifying copy wins (read-side
     * voting), so after a shard crash the history builds entirely
     * from a surviving replica; the rest of the merge is identical.
     * This is what lets RecoveryEngine restore a fleet device after
     * a campaign. panic()s when the whole replica set is dead.
     */
    DeviceHistory(RssdDevice &device,
                  const remote::BackupCluster &cluster,
                  remote::DeviceId id);

    /** Replica the history was fetched from (kNoShard outside the
     *  cluster-sourced mode). */
    remote::ShardId sourceShard() const { return sourceShard_; }

    /** All log entries, oldest first, remote then local tail. */
    const std::vector<log::LogEntry> &entries() const
    {
        return entries_;
    }

    /**
     * Verify the complete evidence chain: remote segment chain, the
     * per-entry hash chain across all segments, the local tail
     * chain, and the splice point between them.
     */
    bool verifyEvidenceChain() const;

    /** Version lookup by dataSeq. */
    const VersionRecord *findVersion(std::uint64_t data_seq) const;

    /** Content bytes of a version (empty in address-only runs). */
    const std::vector<std::uint8_t> &
    contentOf(const VersionRecord &version) const;

    /** Ordered entry indices touching @p lpa (evidence per victim). */
    const std::vector<std::uint32_t> &entriesFor(flash::Lpa lpa) const;

    /** Entropy written by version @p data_seq (kNoEntropy unknown). */
    float entropyOf(std::uint64_t data_seq) const;

    /**
     * Retention-GC horizon: the logSeq of the first log entry that
     * survived pruning on the remote side (0 when the stream was
     * never pruned — full history available). Entries and page
     * versions before the horizon are gone; recovery to a point
     * before it must fail loudly, never silently under-restore.
     */
    std::uint64_t prunedHorizonSeq() const { return horizonSeq_; }
    bool pruned() const { return pruned_; }

    const HistoryCost &cost() const { return cost_; }
    RssdDevice &device() { return device_; }
    const RssdDevice &device() const { return device_; }

  private:
    void build(const remote::BackupStore &store,
               remote::StreamId stream);
    void indexEntry(std::uint32_t idx);

    RssdDevice &device_;
    const remote::BackupStore *store_ = nullptr;
    remote::StreamId stream_ = remote::kDefaultStream;
    std::vector<log::Segment> segments_; ///< opened remote segments
    std::vector<log::LogEntry> entries_;
    std::unordered_map<std::uint64_t, VersionRecord> versions_;
    std::unordered_map<std::uint64_t, float> entropyBySeq_;
    std::unordered_map<flash::Lpa, std::vector<std::uint32_t>>
        byLpa_;
    std::vector<std::uint32_t> emptyIndex_;
    std::vector<std::uint8_t> emptyContent_;
    std::uint64_t horizonSeq_ = 0; ///< first surviving logSeq
    bool pruned_ = false;
    remote::ShardId sourceShard_ = remote::kNoShard;
    HistoryCost cost_;
};

} // namespace rssd::core

#endif // RSSD_CORE_HISTORY_HH
