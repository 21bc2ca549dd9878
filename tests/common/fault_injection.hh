/**
 * @file
 * Test helper: FaultInjector — a scripted fault schedule against one
 * BackupCluster, shared by the remote, fleet, and forensics suites.
 *
 * Faults are (tick, fault) pairs applied in schedule order when the
 * test's virtual time passes them: a fail-stop shard kill, an
 * injected slow-replica service delay, or silent bit-rot over a
 * payload byte range of one stored segment with the tail metadata
 * untouched (the fault read-side voting, chain-verifying source
 * selection and the integrity scrub must survive or catch). Rot goes
 * through BackupStore::injectBitRot, the store's one fault injector.
 * The injector is deliberately dumb — it owns no clock; the test
 * drives advanceTo() from whatever time base it already has (device
 * clocks, the fleet event spine, or a bare counter), which keeps
 * every run deterministic.
 */

#ifndef RSSD_TESTS_COMMON_FAULT_INJECTION_HH
#define RSSD_TESTS_COMMON_FAULT_INJECTION_HH

#include <algorithm>
#include <vector>

#include "remote/backup_cluster.hh"

namespace rssd::test {

struct ScriptedFault
{
    enum class Kind : std::uint8_t {
        KillShard,  ///< fail-stop crash (no migration)
        DelayShard, ///< add per-segment service latency
        BitRot,     ///< flip a payload byte range, tail untouched
    };

    Tick at = 0;
    Kind kind = Kind::KillShard;
    remote::ShardId shard = 0;

    /** DelayShard: extra per-segment service time. */
    Tick delay = 0;

    /** BitRot: which stream and which of its live segments
     *  (0-based, stream order). */
    remote::DeviceId stream = 0;
    std::uint64_t segmentIdx = 0;

    /** BitRot: payload byte range to flip (clamped to the payload).
     *  Segment ids, anchors and the chain tail stay pristine, so
     *  ingest keeps flowing and tail votes still agree — only an
     *  integrity scrub that re-verifies stored bytes catches it. */
    std::size_t byteOffset = 0;
    std::size_t byteCount = 1;
};

class FaultInjector
{
  public:
    explicit FaultInjector(remote::BackupCluster &cluster)
        : cluster_(cluster)
    {
    }

    void
    schedule(const ScriptedFault &fault)
    {
        faults_.push_back(fault);
        // Stable by arrival tick: same-tick faults keep schedule
        // order, so a script is a deterministic program.
        std::stable_sort(faults_.begin() + applied_, faults_.end(),
                         [](const ScriptedFault &a,
                            const ScriptedFault &b) {
                             return a.at < b.at;
                         });
    }

    /** Apply every not-yet-applied fault with at <= @p now. */
    void
    advanceTo(Tick now)
    {
        while (applied_ < faults_.size() &&
               faults_[applied_].at <= now) {
            apply(faults_[applied_]);
            applied_++;
        }
    }

    /** Faults applied so far (tests assert the script ran). */
    std::size_t applied() const { return applied_; }

  private:
    void
    apply(const ScriptedFault &f)
    {
        switch (f.kind) {
          case ScriptedFault::Kind::KillShard:
            cluster_.crashShard(f.shard);
            break;
          case ScriptedFault::Kind::DelayShard:
            cluster_.setShardDelay(f.shard, f.delay);
            break;
          case ScriptedFault::Kind::BitRot:
            cluster_.mutableShardStore(f.shard).injectBitRot(
                f.stream, f.segmentIdx, f.byteOffset, f.byteCount);
            break;
        }
    }

    remote::BackupCluster &cluster_;
    std::vector<ScriptedFault> faults_;
    std::size_t applied_ = 0;
};

} // namespace rssd::test

#endif // RSSD_TESTS_COMMON_FAULT_INJECTION_HH
