/**
 * @file
 * FleetScheduler: a deterministic discrete-event simulation of many
 * RssdDevices offloading into one sharded BackupCluster.
 *
 * Model. Each device is an *actor* with its own VirtualClock, RNG
 * stream, workload generator, Ethernet link and NVMe-oE transport;
 * the only shared state is the cluster at the far end of the wire.
 * One event queue, the *spine*, runs an ordered actor list: devices
 * by id, the scripted faults, the repair engine, the health sampler.
 * Ties at one tick break in that order, so the interleaving — and
 * therefore every byte of the FleetReport — is a pure function of
 * the fleet config and seed. Per-device RNG streams are drawn from
 * one master xoshiro sequence in device-id order, which keeps device
 * k's behavior identical no matter how many other devices run beside
 * it.
 *
 * Each wakeup issues one host operation: an attack step when the
 * device's campaign role is active, one generated trace request
 * otherwise. Device clocks advance through their own submit paths
 * (latency accounting), and the gap to the next wakeup is an
 * integer-jittered think time — no floating-point time arithmetic on
 * the event spine.
 */

#ifndef RSSD_FLEET_SCHEDULER_HH
#define RSSD_FLEET_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rssd_config.hh"
#include "fleet/campaign.hh"
#include "fleet/report.hh"
#include "forensics/forensics.hh"
#include "obs/health.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "remote/backup_cluster.hh"
#include "remote/repair_engine.hh"
#include "workload/profiles.hh"

namespace rssd::fleet {

/** A scripted cluster-membership change during the run. */
enum class MembershipKind : std::uint8_t {
    CrashShard, ///< fail-stop, no migration: replica copies die
    JoinShard,  ///< grow + rebalance (stream migration onto joiner)
    LeaveShard, ///< graceful drain: migrate off, then depart
};

struct MembershipEvent
{
    Tick at = 0;
    MembershipKind kind = MembershipKind::CrashShard;
    /** Target shard (ignored for JoinShard — the joiner gets the
     *  next fresh id). */
    remote::ShardId shard = 0;
};

/**
 * A scripted silent-corruption fault: at tick @p at, flip payload
 * bytes in one stored copy of @p device's stream without touching
 * the tail metadata — the fault class only integrity scrubbing can
 * catch. Rides the DES spine like membership events, so the injected
 * rot lands at a deterministic point in the interleaving.
 */
struct BitRotEvent
{
    Tick at = 0;
    remote::DeviceId device = 0;
    /** Which live copy-holding replica to rot (mod live holders). */
    std::uint32_t replicaIdx = 0;
    /** Stored-segment index, clamped to the copy's current size. */
    std::uint64_t segmentIdx = 0;
};

/**
 * The fleet health layer: a TimeSeriesSampler actor on the DES
 * spine plus a HealthMonitor evaluating SLO rules at every sample.
 * Disabled by default (interval == 0) — enabling it is read-only
 * with respect to the simulation: the run, and every non-health
 * byte of the FleetReport, is identical with health on or off.
 */
struct HealthConfig
{
    /** Sampling cadence in sim time; 0 disables the health layer. */
    Tick interval = 0;

    /** SLO rules; empty means defaultHealthRules(config). */
    std::vector<obs::HealthRule> rules;
};

struct FleetConfig
{
    std::uint32_t devices = 8;
    std::uint32_t shards = 2;

    /** Replica-set size per device stream (overrides
     *  cluster.replication; must be <= shards). */
    std::uint32_t replication = 1;

    std::uint64_t seed = 1;

    /** Benign trace requests per device (attack ops are extra). */
    std::uint64_t opsPerDevice = 400;

    /** Mean think time between a device's operations. */
    Tick meanOpGap = 200 * units::US;

    /** Per-device configuration template (keySeed is per-device). */
    core::RssdConfig device = core::RssdConfig::forTests();

    /** Cluster topology and ingest-queue knobs (shards overrides
     *  cluster.shards). */
    remote::BackupClusterConfig cluster;

    /** Benign traffic shape (every device runs this profile with its
     *  own RNG stream). */
    workload::TraceProfile profile;

    CampaignConfig campaign;

    /**
     * Scripted membership changes (crash / join / leave), applied on
     * the event spine at their tick whatever the list order: at tick
     * T after every device wakeup, before any bit-rot, in list order.
     * A crash or leave must name an initial shard or a joiner's id
     * (joiners count up from `shards`), else construction fails. A
     * crash mid-campaign is the paper's evidence-loss scenario: with
     * R >= 2 forensics and recovery read entirely from the surviving
     * replicas.
     */
    std::vector<MembershipEvent> membership;

    /** Scripted bit-rot faults (see BitRotEvent); a no-op when the
     *  targeted copy holds no segments yet. A device id at or above
     *  `devices` fails at construction. */
    std::vector<BitRotEvent> bitRot;

    /**
     * Anti-entropy repair and integrity scrubbing. When enabled the
     * RepairEngine rides the DES spine at repair.tickInterval, so
     * repair copies contend with foreground quorum writes on the
     * shard workers deterministically; after the fleet drains, the
     * engine runs to full convergence (zero degraded sets, one
     * clean scrub pass) before the report is aggregated.
     */
    remote::RepairEngineConfig repair;

    /** Periodic health telemetry + SLO alerting (off by default). */
    HealthConfig health;

    /** Attach per-device online detectors and report their alarms. */
    bool attachDetectors = true;

    /**
     * Suspicion-aware retention: the moment a device's detectors
     * first alarm, flag its stream with an eviction hold on the
     * cluster, so retention GC cannot flood the victim's evidence
     * out of the window. Only meaningful when the shard stores run
     * with GC enabled (cluster.shard.retention).
     */
    bool suspicionHolds = true;
};

/**
 * The stock SLO rule set for a fleet shaped like @p config — the
 * conditions this fleet can already get into, with thresholds that
 * stay quiet on a healthy run:
 *
 *   quorum_stall   quorum writes kept waiting on a replica
 *   offload_parked remote store refusing segments (park/resubmit)
 *   shard_backlog  an ingest queue pinned at its admission limit
 *   gc_reject      rejects persisting while retention GC runs
 *   repair_debt    degraded replica sets outstanding too long
 *   scrub_rot      integrity scrubbing finding corrupted copies
 *
 * Repair rules appear only when config.repair is enabled (their
 * metrics exist only then; a rule naming an absent metric panics).
 */
std::vector<obs::HealthRule>
defaultHealthRules(const FleetConfig &config);

class FleetScheduler
{
  public:
    explicit FleetScheduler(const FleetConfig &config);
    ~FleetScheduler();

    FleetScheduler(const FleetScheduler &) = delete;
    FleetScheduler &operator=(const FleetScheduler &) = delete;

    /**
     * Run the fleet to completion (all benign ops issued, all attacks
     * finished, all offload queues drained) and aggregate the
     * outcome. Call once.
     */
    FleetReport run();

    remote::BackupCluster &cluster() { return *cluster_; }
    const remote::BackupCluster &cluster() const { return *cluster_; }

    /** The anti-entropy engine (nullptr when repair is disabled). */
    remote::RepairEngine *repairEngine() { return engine_.get(); }

    /**
     * Post-campaign analysis hook: run the cluster-side forensics
     * pipeline over the evidence this fleet offloaded, then execute
     * the recovery plan against the still-live devices (restoring
     * each compromised device to its recommended recovery point
     * from its shard). Requires run() to have completed. Repeated
     * calls reuse the scanner's verified-prefix cache, so a second
     * pass after more evidence arrives is O(new).
     */
    forensics::ForensicsReport
    runForensics(const forensics::ForensicsConfig &config = {});

    /**
     * The campaign's ground truth — which devices actually turned,
     * when, and who was first. Exported for scoring the forensics
     * conclusions; the analysis itself never reads it.
     */
    forensics::GroundTruth groundTruth() const;

    std::uint32_t deviceCount() const;
    core::RssdDevice &device(std::uint32_t idx);
    const DevicePlan &plan(std::uint32_t idx) const;

    // -- Observability ----------------------------------------------------

    /**
     * Attach a trace sink before run(): every capsule lifecycle
     * stage — device seal, offload park/retry, shard queue wait,
     * batch, quorum ack, repair copy, scrub step, GC prune,
     * membership change — lands on the sink as tick-stamped events
     * on fixed tracks (obs::kTrack*). Tracing is strictly read-only:
     * the run, and every byte of the FleetReport, is identical with
     * or without a sink attached. Pass nullptr to detach.
     */
    void attachTrace(obs::TraceSink *sink);

    /**
     * Register the fleet's instruments on @p registry: per-device
     * offload engines ("device.<id>.offload."), the cluster and its
     * shards ("cluster.", "cluster.shard.<id>."), and the repair
     * engine ("repair.", when enabled). Call before run(); sampling
     * happens at snapshotJson() time.
     */
    void registerMetrics(obs::MetricsRegistry &registry) const;

    // -- Health layer (config.health.interval > 0) ------------------------

    /** The spine-driven sampler, nullptr when health is disabled. */
    const obs::TimeSeriesSampler *healthSampler() const
    {
        return sampler_.get();
    }

    /** The SLO rule engine, nullptr when health is disabled. */
    const obs::HealthMonitor *healthMonitor() const
    {
        return monitor_.get();
    }

    /** The accumulated time-series JSONL (empty when disabled). */
    const std::string &healthTimeSeriesJsonl() const;

    /** Scanner created by runForensics() (nullptr before the first
     *  analysis pass) — lets CLIs register its scan-cost metrics. */
    forensics::EvidenceScanner *evidenceScanner()
    {
        return scanner_.get();
    }

  private:
    struct Actor;

    /** One wakeup for device @p actor: issue one op, return the next
     *  wakeup tick, or 0 when the device is finished. */
    Tick step(Actor &actor);

    FleetReport aggregate();

    FleetConfig config_;
    std::unique_ptr<remote::BackupCluster> cluster_;
    std::unique_ptr<remote::RepairEngine> engine_;
    Tick repairConvergedAt_ = 0;
    /** Health layer (config_.health.interval > 0): a private
     *  registry sampled by the spine actor, rules bound over it. */
    obs::MetricsRegistry healthRegistry_;
    std::unique_ptr<obs::TimeSeriesSampler> sampler_;
    std::unique_ptr<obs::HealthMonitor> monitor_;
    /** Lazily created by runForensics(); kept so repeated analysis
     *  passes resume from the verified prefix. */
    std::unique_ptr<forensics::EvidenceScanner> scanner_;
    std::vector<std::unique_ptr<Actor>> actors_;
    std::vector<DevicePlan> plans_;
    obs::TraceSink *trace_ = nullptr;
    bool ran_ = false;
};

} // namespace rssd::fleet

#endif // RSSD_FLEET_SCHEDULER_HH
