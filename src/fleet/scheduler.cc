#include "fleet/scheduler.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <variant>

#include "compress/datagen.hh"
#include "core/history.hh"
#include "core/recovery.hh"
#include "detect/detector.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace rssd::fleet {

/**
 * One simulated machine: an RSSD with its own clock, link, RNG
 * stream, benign workload, and (if the campaign says so) malware.
 */
struct FleetScheduler::Actor
{
    Actor(std::uint32_t id_, const core::RssdConfig &device_cfg,
          remote::BackupCluster &cluster,
          const workload::TraceProfile &profile, std::uint64_t rng_seed,
          std::uint64_t gen_seed, std::uint64_t content_seed)
        : id(id_),
          portal(cluster, id_),
          dev(std::make_unique<core::RssdDevice>(device_cfg, clock,
                                                 portal)),
          rng(rng_seed),
          gen(profile, dev->capacityPages(), gen_seed),
          contentGen(content_seed, profile.compressibility)
    {
    }

    /** Issue one generated benign trace request. */
    void
    issueBenign()
    {
        const workload::Request r = gen.next();
        nvme::Command cmd;
        cmd.op = r.op;
        cmd.lpa = r.lpa;
        cmd.npages = r.npages;
        if (r.op == nvme::Opcode::Write) {
            const std::uint32_t page_size = dev->pageSize();
            cmd.data.reserve(std::size_t(r.npages) * page_size);
            for (std::uint32_t p = 0; p < r.npages; p++) {
                const auto page = contentGen.page(page_size);
                cmd.data.insert(cmd.data.end(), page.begin(),
                                page.end());
            }
        }
        dev->submit(cmd);
        benignOps++;
    }

    std::uint32_t id;
    VirtualClock clock;
    remote::ClusterPortal portal;
    std::unique_ptr<core::RssdDevice> dev;
    Rng rng;
    workload::TraceGenerator gen;
    compress::DataGenerator contentGen;

    std::unique_ptr<attack::VictimDataset> victim;
    std::unique_ptr<FleetAttacker> attacker;
    std::vector<std::unique_ptr<detect::Detector>> detectors;

    std::uint64_t benignOps = 0;
    std::uint64_t steps = 0;
    bool holdFlagged = false; ///< eviction hold already placed
};

FleetScheduler::FleetScheduler(const FleetConfig &config)
    : config_(config)
{
    fatalIf(config.devices == 0, "FleetScheduler: zero devices");
    fatalIf(config.shards == 0, "FleetScheduler: zero shards");
    fatalIf(config.meanOpGap == 0, "FleetScheduler: meanOpGap == 0");
    fatalIf(config.replication == 0, "FleetScheduler: replication == 0");
    fatalIf(config.replication > config.shards,
            "FleetScheduler: replication exceeds shards");
    // Joiners take the next fresh ids, so a crash or leave may name
    // one; whether that shard is up at its tick is run state.
    std::uint64_t shard_ids = config.shards;
    for (const MembershipEvent &e : config.membership)
        shard_ids += e.kind == MembershipKind::JoinShard;
    for (const MembershipEvent &e : config.membership) {
        fatalIf(e.kind != MembershipKind::JoinShard && e.shard >= shard_ids,
                "FleetScheduler: membership event targets unknown "
                "shard " + std::to_string(e.shard));
    }
    for (const BitRotEvent &e : config.bitRot) {
        fatalIf(e.device >= config.devices,
                "FleetScheduler: bit-rot targets unknown device " +
                    std::to_string(e.device));
    }

    remote::BackupClusterConfig cluster_cfg = config_.cluster;
    cluster_cfg.shards = config_.shards;
    cluster_cfg.replication = config_.replication;
    cluster_ = std::make_unique<remote::BackupCluster>(cluster_cfg);

    if (config_.repair.enabled) {
        // The engine registers itself as the cluster's repair
        // observer: crashShard()/quarantineCopy() feed its queue
        // from the moment the degradation exists.
        engine_ = std::make_unique<remote::RepairEngine>(
            *cluster_, config_.repair);
    }

    // Per-device seeds come off one master stream in device-id order:
    // device k's whole behavior is independent of fleet size. The
    // (victim, attacker) seeds are drawn for every device but used
    // only for the ones the campaign infects.
    Rng master(config_.seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> attack_seeds;

    for (std::uint32_t id = 0; id < config_.devices; id++) {
        const std::uint64_t rng_seed = master.next();
        const std::uint64_t gen_seed = master.next();
        const std::uint64_t content_seed = master.next();
        const std::uint64_t victim_seed = master.next();
        const std::uint64_t attack_seed = master.next();

        core::RssdConfig dev_cfg = config_.device;
        dev_cfg.keySeed = config_.device.keySeed + "#fleet-" +
                          std::to_string(id);

        auto actor = std::make_unique<Actor>(
            id, dev_cfg, *cluster_, config_.profile, rng_seed,
            gen_seed, content_seed);
        cluster_->attachDevice(id, actor->dev->codec());

        if (config_.attachDetectors) {
            // Fleet-tuned entropy detector: smaller window and lower
            // thresholds than the controller defaults, so a 32-page
            // per-device encryption burst is visible.
            detect::EntropyOverwriteDetector::Config ec;
            ec.windowOps = 256;
            ec.alarmRatio = 0.08;
            ec.minFlagged = 12;
            actor->detectors.push_back(
                std::make_unique<detect::EntropyOverwriteDetector>(
                    ec));
            actor->detectors.push_back(
                std::make_unique<detect::WriteBurstDetector>());
            for (auto &d : actor->detectors)
                actor->dev->attachDetector(d.get());
        }

        attack_seeds.push_back({victim_seed, attack_seed});
        actors_.push_back(std::move(actor));
    }

    plans_ = planCampaign(config_.campaign, config_.devices,
                          *cluster_);

    for (std::uint32_t id = 0; id < config_.devices; id++) {
        const DevicePlan &plan = plans_[id];
        if (plan.role == DeviceRole::Benign)
            continue;
        Actor &a = *actors_[id];
        a.victim = std::make_unique<attack::VictimDataset>(
            0, config_.campaign.victimPages, 0.7,
            attack_seeds[id].first);
        a.victim->populate(*a.dev);

        FleetAttacker::Params params;
        params.role = plan.role;
        params.floodPages = config_.campaign.floodPages;
        params.floodSpanFraction = config_.campaign.floodSpanFraction;
        attack::AttackConfig attack_cfg;
        attack_cfg.attackerKeySeed =
            "r4ns0m-fleet-" + std::to_string(id);
        attack_cfg.rngSeed = attack_seeds[id].second;
        a.attacker =
            std::make_unique<FleetAttacker>(params, attack_cfg);
    }

    if (config_.health.interval > 0) {
        // The health layer rides a private registry so the CLIs'
        // own registries stay independent. Rules bind by metric
        // name now — a rule naming an absent metric panics here,
        // not silently at the first sample.
        registerMetrics(healthRegistry_);
        sampler_ = std::make_unique<obs::TimeSeriesSampler>(
            healthRegistry_);
        std::vector<obs::HealthRule> rules =
            config_.health.rules.empty() ? defaultHealthRules(config_)
                                         : config_.health.rules;
        monitor_ = std::make_unique<obs::HealthMonitor>(
            *sampler_, std::move(rules));
    }
}

FleetScheduler::~FleetScheduler() = default;

std::uint32_t
FleetScheduler::deviceCount() const
{
    return static_cast<std::uint32_t>(actors_.size());
}

core::RssdDevice &
FleetScheduler::device(std::uint32_t idx)
{
    panicIf(idx >= actors_.size(), "FleetScheduler: device idx OOB");
    return *actors_[idx]->dev;
}

const DevicePlan &
FleetScheduler::plan(std::uint32_t idx) const
{
    panicIf(idx >= plans_.size(), "FleetScheduler: device idx OOB");
    return plans_[idx];
}

void
FleetScheduler::attachTrace(obs::TraceSink *sink)
{
    panicIf(ran_, "FleetScheduler: attachTrace after run()");
    trace_ = sink;
    for (auto &actor : actors_)
        actor->dev->offload().attachTrace(sink, actor->id);
    cluster_->attachTrace(sink);
    if (engine_)
        engine_->attachTrace(sink);
    if (monitor_)
        monitor_->attachTrace(sink);
    if (sink == nullptr)
        return;
    sink->setProcessName(obs::kTrackDevices, "devices");
    sink->setProcessName(obs::kTrackCluster, "cluster");
    sink->setProcessName(obs::kTrackRepair, "repair");
    sink->setProcessName(obs::kTrackFleet, "fleet");
    for (const auto &actor : actors_) {
        sink->setThreadName(obs::kTrackDevices, actor->id,
                            "device " + std::to_string(actor->id));
    }
    for (remote::ShardId s = 0; s < cluster_->shardCount(); s++) {
        sink->setThreadName(obs::kTrackCluster, s,
                            "shard " + std::to_string(s));
    }
}

void
FleetScheduler::registerMetrics(obs::MetricsRegistry &registry) const
{
    for (const auto &actor : actors_) {
        actor->dev->offload().registerMetrics(
            registry,
            "device." + std::to_string(actor->id) + ".offload.");
    }
    cluster_->registerMetrics(registry, "cluster.");
    if (engine_)
        engine_->registerMetrics(registry, "repair.");

    // Fleet-wide offload aggregates: the health rules watch the
    // fleet, not one device, so the park/resubmit/reject totals are
    // summed across every actor at sample time.
    const auto total = [this](std::uint64_t core::OffloadStats::*field) {
        return [this, field] {
            std::uint64_t n = 0;
            for (const auto &actor : actors_)
                n += actor->dev->offload().stats().*field;
            return n;
        };
    };
    registry.counter("fleet.offloadParks",
                     total(&core::OffloadStats::parks));
    registry.counter("fleet.offloadResubmits",
                     total(&core::OffloadStats::resubmits));
    registry.counter("fleet.remoteRejects",
                     total(&core::OffloadStats::remoteRejects));
}

const std::string &
FleetScheduler::healthTimeSeriesJsonl() const
{
    static const std::string kEmpty;
    return sampler_ ? sampler_->jsonl() : kEmpty;
}

std::vector<obs::HealthRule>
defaultHealthRules(const FleetConfig &config)
{
    using obs::Cmp;
    using obs::Severity;
    using obs::Signal;
    const Tick hold = 2 * units::MS;

    // Fields: id, metric, signal, cmp, threshold, holdFor, severity.
    std::vector<obs::HealthRule> rules = {
        // Quorum writes kept waiting: live replicas below the write
        // quorum. Never happens on a healthy ring, so any sustained
        // stall rate is a real incident.
        {"quorum_stall", "cluster.quorumStalls", Signal::Rate, Cmp::Gt,
         0, hold, Severity::Warn},
        // The remote store refusing segments: devices are parking
        // sealed bytes and burning resubmit probes.
        {"offload_parked", "fleet.offloadParks", Signal::Rate, Cmp::Gt,
         0, hold, Severity::Warn},
        // An ingest queue pinned at its admission limit — the point
        // where backpressure turns into rejects.
        {"shard_backlog", "cluster.pendingMax", Signal::Value, Cmp::Ge,
         config.cluster.maxPending, hold, Severity::Warn},
        // Rejects persisting while retention GC runs: the steady state
        // leaks work instead of absorbing it.
        {"gc_reject", "cluster.segmentsRejected", Signal::Rate, Cmp::Gt,
         0, hold, Severity::Warn},
    };
    if (config.repair.enabled) {
        // Repair debt outstanding longer than a few engine wakeups
        // should be needed to start paying it down.
        rules.push_back({"repair_debt", "repair.oldestDebtAgeNs",
                         Signal::Value, Cmp::Gt,
                         5 * config.repair.tickInterval, 0,
                         Severity::Critical});
    }
    if (config.repair.enabled && config.repair.scrubInterval != 0) {
        // Integrity scrubbing finding corrupted copies — silent
        // data loss in progress.
        rules.push_back({"scrub_rot", "repair.scrubCorruptions",
                         Signal::Rate, Cmp::Gt, 0, 0,
                         Severity::Critical});
    }
    return rules;
}

namespace {

/** Integer-jittered think time: uniform in [gap/2, 3*gap/2). */
Tick
thinkTime(Rng &rng, Tick mean_gap)
{
    return mean_gap / 2 + rng.below(mean_gap);
}

/**
 * One actor on the event spine: wake(at) runs it at tick @p at and
 * returns its next wakeup tick, or 0 once it is finished. The
 * optional finish hook runs after the spine empties; it takes the
 * running end tick and returns the tick it reached.
 */
struct SpineActor
{
    std::function<Tick(Tick)> wake;
    std::function<Tick(Tick)> finish;
};

/**
 * The scripted-fault actor: FleetConfig::membership then bitRot,
 * stable-sorted by tick, so membership applies before bit-rot at a
 * shared tick and each list keeps its order. It wakes at tick 0 and
 * then at each fault's tick. The only product code that corrupts
 * stored evidence.
 */
class ScriptedFaults
{
  public:
    ScriptedFaults(const FleetConfig &config,
                   remote::BackupCluster &cluster, obs::TraceSink *trace)
        : cluster_(cluster), trace_(trace)
    {
        for (const MembershipEvent &e : config.membership)
            faults_.push_back({e.at, &e});
        for (const BitRotEvent &e : config.bitRot)
            faults_.push_back({e.at, &e});
        std::stable_sort(faults_.begin(), faults_.end(),
                         [](const Fault &a, const Fault &b) {
                             return a.at < b.at;
                         });
    }

    /** Apply every fault due at @p at; return the next fault's tick,
     *  or 0 after the last one. */
    Tick
    wake(Tick at)
    {
        for (; next_ < faults_.size() && faults_[next_].at == at; next_++) {
            std::visit([&](auto *e) { apply(*e, at); },
                       faults_[next_].event);
        }
        return next_ < faults_.size() ? faults_[next_].at : 0;
    }

  private:
    struct Fault
    {
        Tick at;
        std::variant<const MembershipEvent *, const BitRotEvent *> event;
    };

    void
    apply(const MembershipEvent &e, Tick at)
    {
        remote::ShardId shard = e.shard;
        const char *name = "crash-shard";
        switch (e.kind) {
          case MembershipKind::CrashShard:
            cluster_.crashShard(e.shard);
            break;
          case MembershipKind::JoinShard:
            shard = cluster_.joinShard(at);
            name = "join-shard";
            break;
          case MembershipKind::LeaveShard:
            cluster_.leaveShard(e.shard, at);
            name = "leave-shard";
            break;
        }
        if (trace_ != nullptr) {
            trace_->instant("fleet", name, obs::kTrackFleet, 0, at,
                            {{"shard", shard}});
        }
    }

    /** Rot the replicaIdx-th live replica-set member whose copy
     *  stores segments; a no-op when no copy does. */
    void
    apply(const BitRotEvent &e, Tick at)
    {
        if (trace_ != nullptr) {
            trace_->instant("fleet", "bit-rot", obs::kTrackFleet, 0, at,
                            {{"device", e.device}});
        }
        std::vector<remote::ShardId> holders;
        for (const remote::ShardId s : cluster_.replicaSetOf(e.device)) {
            if (cluster_.shardAlive(s) &&
                cluster_.shardStore(s).hasStream(e.device) &&
                !cluster_.shardStore(s).streamSegments(e.device).empty())
                holders.push_back(s);
        }
        if (holders.empty())
            return;
        remote::BackupStore &store = cluster_.mutableShardStore(
            holders[e.replicaIdx % holders.size()]);
        const std::uint64_t count = store.streamSegments(e.device).size();
        store.injectBitRot(e.device, std::min(e.segmentIdx, count - 1),
                           /*first_byte=*/7, /*byte_count=*/5);
    }

    remote::BackupCluster &cluster_;
    obs::TraceSink *trace_;
    std::vector<Fault> faults_;
    std::size_t next_ = 0;
};

} // namespace

Tick
FleetScheduler::step(Actor &a)
{
    const DevicePlan &plan = plans_[a.id];
    const bool benign_done = a.benignOps >= config_.opsPerDevice;
    FleetAttacker *attacker = a.attacker.get();

    // Benign traffic exhausted with the attack still ahead: jump to
    // the infection time instead of spinning.
    if (attacker && !attacker->begun() && benign_done &&
        a.clock.now() < plan.attackStart) {
        a.clock.advanceTo(plan.attackStart);
    }

    if (attacker && !attacker->begun() &&
        a.clock.now() >= plan.attackStart) {
        attacker->begin(*a.dev, *a.victim, a.clock.now());
    }

    if (attacker && attacker->begun() && !attacker->done()) {
        attacker->step(*a.dev, a.clock);
    } else if (!benign_done) {
        a.issueBenign();
    } else {
        return 0; // everything this device had to do is done
    }

    a.steps++;
    // Periodic offload tick: benign read phases don't pass through
    // the write path's opportunistic pump, so give the engine a
    // chance to seal full segments between host commands.
    if ((a.steps & 7) == 0)
        a.dev->pumpOffload();

    // Suspicion-aware retention: the first detector alarm flags the
    // device's stream with an eviction hold, so capacity pressure
    // (a shard-flood) cannot expire the victim's evidence.
    if (config_.suspicionHolds && !a.holdFlagged) {
        for (const auto &det : a.detectors) {
            if (!det->alarms().empty()) {
                cluster_->setEvictionHold(a.id, true);
                a.holdFlagged = true;
                if (trace_ != nullptr) {
                    trace_->instant("fleet", "suspicion-hold",
                                    obs::kTrackFleet, 0,
                                    a.clock.now(),
                                    {{"device", a.id}});
                }
                break;
            }
        }
    }

    return a.clock.now() + thinkTime(a.rng, config_.meanOpGap);
}

FleetReport
FleetScheduler::run()
{
    panicIf(ran_, "FleetScheduler: run() twice");
    ran_ = true;

    // The spine's actors in registration order, which is also the
    // tie-break at a shared tick: devices by id, the scripted faults,
    // the repair engine, the health sampler. A fault at tick T lands
    // after every device op at T, and the sampler observes after
    // everything else at T: one consistent cut per interval.
    using Event = std::pair<Tick, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        queue;
    std::vector<SpineActor> spine;
    const auto add = [&](Tick first_wake, SpineActor actor) {
        queue.push({first_wake, spine.size()});
        spine.push_back(std::move(actor));
    };

    std::uint32_t active = deviceCount(); // devices still issuing ops
    for (auto &actor : actors_) {
        Actor &a = *actor;
        add(a.clock.now() + thinkTime(a.rng, config_.meanOpGap),
            {[this, &a, &active](Tick at) {
                 a.clock.advanceTo(at);
                 const Tick next = step(a);
                 if (next == 0)
                     active--;
                 return next;
             },
             // Ship every straggler segment, in device-id order.
             [&a](Tick) {
                 a.dev->drainOffload();
                 return a.clock.now();
             }});
    }
    ScriptedFaults faults(config_, *cluster_, trace_);
    add(0, {[&faults](Tick at) { return faults.wake(at); }, nullptr});

    // The engine and the sampler wake periodically while any device
    // still issues ops; repair copies contend with foreground quorum
    // writes in the shard ingest queues. After the drains the engine
    // converges in virtual time (queue drained, quarantined copies
    // rebuilt, one clean scrub pass), and a final sample observes the
    // healed state, which is what clears a raised repair_debt.
    if (engine_) {
        const Tick every = config_.repair.tickInterval;
        add(every, {[this, &active, every](Tick at) {
                        engine_->tick(at);
                        return active > 0 ? at + every : 0;
                    },
                    [this](Tick end) {
                        repairConvergedAt_ = engine_->drainAll(end);
                        return repairConvergedAt_;
                    }});
    }
    if (sampler_) {
        const Tick every = config_.health.interval;
        const auto sample = [this](Tick at) {
            sampler_->sample(at);
            monitor_->evaluate(at);
            return at;
        };
        add(every, {[&active, every, sample](Tick at) {
                        sample(at);
                        return active > 0 ? at + every : 0;
                    },
                    [this, sample](Tick end) {
                        return sample(
                            std::max(end, sampler_->lastSampleAt() + 1));
                    }});
    }

    while (!queue.empty()) {
        const auto [at, i] = queue.top();
        queue.pop();
        if (const Tick next = spine[i].wake(at); next != 0)
            queue.push({next, i});
    }
    Tick end = 0;
    for (SpineActor &actor : spine) {
        if (actor.finish)
            end = std::max(end, actor.finish(end));
    }
    return aggregate();
}

forensics::GroundTruth
FleetScheduler::groundTruth() const
{
    forensics::GroundTruth truth;
    truth.known = true;
    truth.scenario = scenarioName(config_.campaign.scenario);

    // Infected devices by *actual* attack begin time (the plan's
    // attackStart is when the malware was armed; the evidence can
    // only ever see the first operation it issued).
    std::vector<std::pair<Tick, remote::DeviceId>> infected;
    for (const auto &actor : actors_) {
        const FleetAttacker *attacker = actor->attacker.get();
        if (attacker && attacker->begun())
            infected.push_back(
                {attacker->report().startedAt, actor->id});
    }
    std::sort(infected.begin(), infected.end());
    truth.anyInfected = !infected.empty();
    for (const auto &[at, id] : infected) {
        (void)at;
        truth.infectionOrder.push_back(id);
    }
    if (truth.anyInfected)
        truth.patientZero = truth.infectionOrder.front();
    return truth;
}

forensics::ForensicsReport
FleetScheduler::runForensics(const forensics::ForensicsConfig &config)
{
    panicIf(!ran_, "FleetScheduler: runForensics() before run()");
    if (!scanner_) {
        scanner_ =
            std::make_unique<forensics::EvidenceScanner>(*cluster_);
    }
    forensics::ForensicsReport report =
        forensics::analyzeCluster(*scanner_, config, groundTruth());

    // Execute the plan: restore every compromised (and still
    // trustworthy) device to its recommended recovery point from
    // the shard holding its stream. Device-id order — part of the
    // determinism contract.
    for (const forensics::DeviceFinding &f :
         report.correlation.findings) {
        if (!f.finding.detected || !f.chainIntact)
            continue;
        Actor &a = *actors_[static_cast<std::uint32_t>(f.device)];

        forensics::RecoveryOutcome outcome;
        outcome.device = f.device;
        outcome.recoverySeq = f.finding.recommendedRecoverySeq;
        outcome.victimIntactBefore =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;

        // Replica-aware restore: read from whichever live replica's
        // copy of the stream chain-verifies (a crashed primary is
        // invisible here — the history comes off a survivor).
        core::DeviceHistory history(*a.dev, *cluster_, f.device);
        outcome.restoredFromShard = history.sourceShard();
        core::RecoveryEngine engine(history);
        const core::RecoveryReport rec =
            engine.recoverToLogSeq(outcome.recoverySeq);

        outcome.pagesRestored = rec.pagesRestored;
        outcome.restoredFromRemote = rec.restoredFromRemote;
        outcome.unresolved = rec.unresolved;
        outcome.beforePrunedHorizon = rec.beforePrunedHorizon;
        outcome.victimIntactAfter =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;
        report.recovery.push_back(outcome);
    }
    report.recoveryExecuted = true;
    return report;
}

FleetReport
FleetScheduler::aggregate()
{
    FleetReport rep;
    rep.devices = config_.devices;
    rep.shards = cluster_->shardCount();
    rep.replication = config_.replication;
    rep.liveShards = cluster_->liveShardCount();
    rep.scenario = scenarioName(config_.campaign.scenario);
    rep.seed = config_.seed;
    rep.opsPerDevice = config_.opsPerDevice;

    for (auto &actor : actors_) {
        Actor &a = *actor;
        DeviceReport d;
        d.device = a.id;
        d.shard = cluster_->shardOfDevice(a.id);
        d.replicas = cluster_->replicaSetOf(a.id);
        const remote::StreamHealth health =
            cluster_->streamHealth(a.id);
        d.replicasLive = health.live;
        d.quarantinedCopies = health.quarantined;
        d.role = roleName(plans_[a.id].role);
        d.attackStart = plans_[a.id].role == DeviceRole::Benign
            ? 0
            : plans_[a.id].attackStart;
        if (a.attacker && a.attacker->begun())
            d.attack = a.attacker->report();
        else
            d.attack.attack = "benign";
        d.victimIntact =
            a.victim ? a.victim->intactFraction(*a.dev) : 1.0;

        Tick first_at = 0;
        for (const auto &det : a.detectors) {
            for (const detect::Alarm &alarm : det->alarms()) {
                d.alarms++;
                if (d.firstAlarmDetector.empty() ||
                    alarm.raisedAt < first_at) {
                    first_at = alarm.raisedAt;
                    d.firstAlarmDetector = alarm.detector;
                }
            }
        }
        d.firstAlarmAt = first_at;
        d.benignOps = a.benignOps;
        d.rssd = a.dev->stats();
        d.offload = a.dev->offload().stats();
        d.transport = a.dev->transport().stats();
        d.finishedAt = a.clock.now();
        rep.sealLatency.merge(a.dev->offload().sealLatency());

        rep.totalPagesEncrypted += d.attack.pagesEncrypted;
        rep.totalPagesTrimmed += d.attack.pagesTrimmed;
        rep.totalJunkPages += d.attack.junkPagesWritten;
        rep.totalAlarms += d.alarms;
        rep.makespan = std::max(rep.makespan, d.finishedAt);
        rep.deviceReports.push_back(std::move(d));
    }

    for (remote::ShardId s = 0; s < cluster_->shardCount(); s++) {
        const remote::ShardIngestStats &st = cluster_->shardStats(s);
        const remote::BackupStore &store = cluster_->shardStore(s);
        ShardReport sr;
        sr.shard = s;
        sr.status =
            remote::shardStatusName(cluster_->shardStatus(s));
        sr.devices = cluster_->shardDevices(s).size();
        sr.segmentsAccepted = st.segmentsAccepted;
        sr.segmentsRejected = st.segmentsRejected;
        sr.duplicates = store.stats().duplicateSegments;
        sr.rejectedBytes = st.rejectedBytes;
        sr.batches = st.batches;
        sr.meanBatchSegments = st.meanBatchSegments();
        sr.maxBatchFill = st.maxBatchFill;
        sr.backpressureStalls = st.backpressureStalls;
        if (st.backlog.count() > 0) {
            sr.backlogP50 = st.backlog.percentileNs(50);
            sr.backlogP99 = st.backlog.percentileNs(99);
        }
        sr.usedBytes = store.usedBytes();
        sr.capacityBytes = store.capacityBytes();
        sr.segmentsPruned = store.stats().segmentsPruned;
        sr.bytesPruned = store.stats().bytesPruned;
        sr.heldStreams = store.heldStreams();
        sr.quarantined = cluster_->shardAlive(s)
            ? store.quarantinedStreams()
            : 0;
        // A crashed shard is fail-stop: its store is gone from the
        // ring and never read again, so it neither vouches for nor
        // taints the fleet's chain verdict.
        sr.chainOk = cluster_->shardAlive(s)
            ? store.verifyFullChain()
            : true;

        rep.queueWaitLatency.merge(st.queueWait);
        rep.offloadAckLatency.merge(st.backlog);

        rep.totalSegments += sr.segmentsAccepted;
        rep.totalBytesStored += sr.usedBytes;
        rep.totalBackpressureStalls += sr.backpressureStalls;
        rep.totalSegmentsPruned += sr.segmentsPruned;
        rep.totalBytesPruned += sr.bytesPruned;
        rep.allChainsOk = rep.allChainsOk && sr.chainOk;
        rep.shardReports.push_back(sr);
    }
    rep.replicationStats = cluster_->replicationStats();
    rep.quorumWaitLatency.merge(cluster_->quorumWait());

    rep.repairEnabled = config_.repair.enabled;
    if (engine_) {
        rep.repairStats = engine_->stats();
        rep.repairCopyLatency.merge(engine_->copyLatency());
    }
    rep.degradedAtEnd = cluster_->degradedStreams().size();
    rep.quarantinedAtEnd = cluster_->quarantinedCopies();
    rep.repairConvergedAt = repairConvergedAt_;

    rep.health.enabled = sampler_ != nullptr;
    rep.health.interval = config_.health.interval;
    if (sampler_) {
        rep.health.samples = sampler_->samples();
        rep.health.lastSampleAt = sampler_->lastSampleAt();
    }
    if (monitor_) {
        const std::vector<obs::HealthRule> &rules = monitor_->rules();
        rep.health.alertsRaised = monitor_->alerts().size();
        rep.health.alertsOpen = monitor_->openCount();
        rep.health.worstSeverity =
            obs::severityName(monitor_->worstRaised());
        for (std::size_t i = 0; i < rules.size(); i++) {
            HealthRuleReport rr;
            rr.id = rules[i].id;
            rr.metric = rules[i].metric;
            rr.severity = obs::severityName(rules[i].severity);
            rr.raised = monitor_->raisedCount(i);
            for (const obs::HealthAlert &alert : monitor_->alerts()) {
                if (alert.rule == i && alert.open)
                    rr.open = true;
            }
            rep.health.rules.push_back(std::move(rr));
        }
        for (const obs::HealthAlert &alert : monitor_->alerts()) {
            HealthAlertReport ar;
            ar.rule = rules[alert.rule].id;
            ar.severity =
                obs::severityName(rules[alert.rule].severity);
            ar.raisedAt = alert.raisedAt;
            ar.clearedAt = alert.open ? 0 : alert.clearedAt;
            ar.open = alert.open;
            ar.observed = alert.observed;
            rep.health.alerts.push_back(std::move(ar));
        }
    }
    return rep;
}

} // namespace rssd::fleet
