/**
 * @file
 * fleetbench: the host-time and modeled-outcome benchmark program for
 * the RSSD fleet simulator. See README.md beside this file for the
 * metric catalog and why each workload exists; run.py is the entry
 * point that builds this program and aggregates its output.
 *
 *   fleetbench timed  --workload W --seed S --seconds T
 *   fleetbench traced --workload W --seed S --trace-out PATH
 *
 * `timed` builds the run's kFleets fleets of workload W from seed S
 * (see fleetOf()), runs fleet 0 once untimed as a warm-up, then
 * cycles through the fleets timing FleetScheduler(cfg), run() and
 * runForensics() until T seconds have passed and every fleet ran. It
 * prints one JSON line per iteration (host times, report digests, op
 * counts, check verdict), one per extra set-up sample, and a summary
 * line (modeled and outcome metrics pooled over the fleets, peak RSS).
 *
 * `traced` runs fleet 0 once with probes around the public calls and
 * prints one JSON line with every per-layer metric; the host spans go
 * to PATH as Chrome trace JSON (Perfetto opens it).
 *
 * Every layer is measured from outside: timers wrap calls into
 * public functions, counters come from public stats accessors. The
 * probes only read state, and they run where they cannot change what
 * the timed calls see: the cluster probes sit between run() and
 * runForensics(), the DeviceHistory probe after runForensics().
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compress/datagen.hh"
#include "core/history.hh"
#include "crypto/sha256.hh"
#include "fleet/scheduler.hh"
#include "forensics/correlate.hh"
#include "forensics/evidence.hh"
#include "forensics/planner.hh"
#include "obs/trace.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "workload/generator.hh"

using namespace rssd;

namespace {

// -- Workloads ------------------------------------------------------------

/**
 * Evidence custody dominates: R = 3 quorum ingest, every device
 * encrypts at 50 ms, a shard crashes mid-campaign, repair and
 * scrubbing heal it, and forensics recovers all 16 victims.
 */
fleet::FleetConfig
outbreakR3Repair(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 6;
    cfg.replication = 3;
    cfg.seed = seed;
    cfg.opsPerDevice = 50;
    cfg.campaign.scenario = fleet::Scenario::Outbreak;
    // Mid-run (the makespan is about 130 ms), once every stream has
    // stored segments, so repair has copies to make.
    cfg.membership.push_back(
        {80 * units::MS, fleet::MembershipKind::CrashShard, 1});
    cfg.repair.enabled = true;
    cfg.repair.scrubInterval = 10 * units::MS;
    return cfg;
}

/**
 * The per-command path dominates: no attack, R = 1, half a percent
 * of commands write, so sealing, verification and audit are a small
 * share of the run.
 */
fleet::FleetConfig
benignReadMostly(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.seed = seed;
    cfg.opsPerDevice = 8000;
    cfg.campaign.scenario = fleet::Scenario::Benign;
    cfg.profile.writeFraction = 0.005;
    cfg.profile.trimFraction = 0.0;
    return cfg;
}

/**
 * The remote store evicts instead of appending: flooders write
 * incompressible junk into 3 MiB shards with retention GC on, so
 * the flooded shard prunes in steady state and the flooders' own
 * evidence is pruned (their verdicts and victims are lost by design).
 */
fleet::FleetConfig
shardFloodGc(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.seed = seed;
    cfg.opsPerDevice = 75;
    cfg.campaign.scenario = fleet::Scenario::ShardFlood;
    cfg.campaign.floodPages = 384;
    cfg.campaign.floodSpanFraction = 0.0625;
    cfg.cluster.shard.capacityBytes = 3 * units::MiB;
    cfg.cluster.shard.retention.gcEnabled = true;
    return cfg;
}

struct Workload
{
    const char *name;
    fleet::FleetConfig (*make)(std::uint64_t seed);
};

constexpr Workload kWorkloads[] = {
    {"outbreak_r3_repair", outbreakR3Repair},
    {"benign_readmostly", benignReadMostly},
    {"shardflood_gc", shardFloodGc},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/** Fleets per run, each built from its own seed (see fleetOf()). */
constexpr std::uint64_t kFleets = 16;

/** Extra set-up-only samples per run: construction is short, so its
 *  median needs more samples than the full iterations give. */
constexpr std::uint64_t kSetupSamples = 32;

// -- Host clocks ----------------------------------------------------------

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
digestOf(const std::string &text)
{
    return crypto::toHex(crypto::Sha256::hash(text.data(), text.size()));
}

double
ms(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(units::MS);
}

double
mib(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / static_cast<double>(units::MiB);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// -- One fleet iteration --------------------------------------------------

/** Device-side counters summed over the fleet (public accessors). */
struct DeviceTotals
{
    std::uint64_t hostReads = 0;
    std::uint64_t hostWrites = 0;
    std::uint64_t hostTrims = 0;
    std::uint64_t gcMoves = 0;
    std::uint64_t flashReads = 0;
    std::uint64_t flashPrograms = 0;
    std::uint64_t flashErases = 0;
    std::uint64_t deviceFullErrors = 0;
    std::uint64_t segmentsSealed = 0;
    std::uint64_t bytesSealed = 0;
    std::uint64_t bytesRaw = 0;
    std::uint64_t parks = 0;
    std::uint64_t resubmits = 0;
    std::uint64_t segmentsSent = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t retransmits = 0;

    std::uint64_t hostOps() const
    {
        return hostReads + hostWrites + hostTrims;
    }
};

DeviceTotals
deviceTotals(fleet::FleetScheduler &sched)
{
    DeviceTotals t;
    for (std::uint32_t i = 0; i < sched.deviceCount(); i++) {
        const core::RssdDevice &dev = sched.device(i);
        const ftl::FtlStats &fs = dev.ftl().stats();
        const flash::NandStats &ns = dev.ftl().nand().stats();
        const core::OffloadStats &os = dev.offload().stats();
        const net::TransportStats &ts = dev.transport().stats();
        t.hostReads += fs.hostReads;
        t.hostWrites += fs.hostWrites;
        t.hostTrims += fs.hostTrims;
        t.gcMoves += fs.gcValidMoves + fs.gcHeldMoves;
        t.flashReads += ns.reads;
        t.flashPrograms += ns.programs;
        t.flashErases += ns.erases;
        t.deviceFullErrors += dev.stats().deviceFullErrors;
        t.segmentsSealed += os.segmentsSealed;
        t.bytesSealed += os.bytesSealed;
        t.bytesRaw += os.bytesRaw;
        t.parks += os.parks;
        t.resubmits += os.resubmits;
        t.segmentsSent += ts.segmentsSent;
        t.wireBytes += ts.bytesSent;
        t.retransmits += ts.retransmits;
    }
    return t;
}

/**
 * Restore jobs for the given devices, built the way analyzeCluster()
 * builds them: verified bytes from the scanner's source replica, and
 * every live, unquarantined copy whose chain tail agrees as a source.
 */
std::vector<forensics::RestoreJob>
restoreJobs(const forensics::EvidenceScanner &scanner,
            const std::vector<forensics::DeviceFinding> &findings,
            bool detected_only)
{
    const remote::BackupCluster &cluster = scanner.cluster();
    std::vector<forensics::RestoreJob> jobs;
    for (const forensics::DeviceFinding &f : findings) {
        if (detected_only && (!f.finding.detected || !f.chainIntact))
            continue;
        forensics::RestoreJob job;
        job.device = f.device;
        job.shard = f.shard;
        job.bytes = scanner.evidence(f.device).bytesVerified;
        job.damage = f.finding.implicatedOps;
        job.recoverySeq = f.finding.recommendedRecoverySeq;
        if (cluster.shardAlive(f.shard) &&
            cluster.shardStore(f.shard).hasStream(f.device)) {
            const auto want =
                cluster.shardStore(f.shard).streamTail(f.device);
            for (const remote::ShardId s :
                 cluster.replicaSetOf(f.device)) {
                if (cluster.shardAlive(s) &&
                    cluster.shardStore(s).hasStream(f.device) &&
                    !cluster.copyQuarantined(s, f.device) &&
                    cluster.shardStore(s).streamTail(f.device) == want)
                    job.sources.push_back(s);
            }
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** The workload's correctness checks; empty string when all pass. */
std::string
checkIteration(const std::string &workload, const fleet::FleetReport &rep,
               const forensics::ForensicsReport &fr)
{
    if (!rep.allChainsOk)
        return "allChainsOk is false";
    if (workload == "outbreak_r3_repair") {
        if (rep.degradedAtEnd != 0)
            return "degraded replica sets at end";
        if (rep.quarantinedAtEnd != 0)
            return "quarantined copies at end";
        // The campaign class is an outcome, not a check: when one
        // device is busy at detonation and turns more than
        // CorrelationConfig::outbreakSpanMax late, the evidence shows
        // a staggered start (see README.md).
        if (!fr.patientZeroMatch || !fr.infectionOrderMatch)
            return "patient zero or infection order does not match "
                   "ground truth";
    }
    if (workload == "benign_readmostly") {
        if (rep.totalAlarms != 0 || fr.correlation.anyDetected)
            return "benign fleet was flagged";
    }
    return "";
}

/** One flat JSON object of named values, printed as one line. */
class Metrics
{
  public:
    Metrics() { j_.open('{'); }

    void
    put(const char *name, double v)
    {
        j_.key(name);
        j_.f64(v);
    }

    void
    str(const char *name, const std::string &v)
    {
        j_.key(name);
        j_.str(v);
    }

    std::string
    finish()
    {
        j_.close('}');
        return out_;
    }

  private:
    std::string out_;
    sim::JsonWriter j_{out_};
};

/**
 * Percentile @p p of @p h in milliseconds, interpolated linearly
 * inside its bucket. LatencyHistogram buckets are sqrt(2) wide, so a
 * bucket's upper edge jumps by 41 % when the percentile crosses it;
 * the interpolated value moves smoothly. Bucket populations are read
 * back through rank queries on the public percentile function.
 */
double
percentileMs(const LatencyHistogram &h, double p)
{
    const std::uint64_t n = h.count();
    if (n == 0)
        return 0;
    // Upper edge (clamped to the maximum) of the sample of rank r.
    const auto edge = [&](std::uint64_t r) {
        return h.percentileNs(100.0 * (static_cast<double>(r) - 0.5) /
                              static_cast<double>(n));
    };
    const double t = p / 100.0 * static_cast<double>(n);
    const std::uint64_t r = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(t)), 1, n);
    const Tick upper = edge(r);
    std::uint64_t lo = 1, hi = r; // first rank in the bucket
    while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        if (edge(mid) < upper)
            lo = mid + 1;
        else
            hi = mid;
    }
    const std::uint64_t first = lo;
    lo = r, hi = n; // last rank in the bucket
    while (lo < hi) {
        const std::uint64_t mid = (lo + hi + 1) / 2;
        if (edge(mid) > upper)
            hi = mid - 1;
        else
            lo = mid;
    }
    const std::uint64_t last = lo;
    // The bucket whose upper edge is `upper` (an edge value itself
    // maps to the bucket above it).
    int b = LatencyHistogram::bucketFor(upper);
    while (b > 0 && LatencyHistogram::bucketUpperBound(b - 1) >= upper)
        b--;
    const double lower =
        b > 0 ? static_cast<double>(
                    LatencyHistogram::bucketUpperBound(b - 1))
              : 0.0;
    const double frac = (t - static_cast<double>(first - 1)) /
                        static_cast<double>(last - first + 1);
    return (lower + (static_cast<double>(upper) - lower) *
                        std::clamp(frac, 0.0, 1.0)) /
           static_cast<double>(units::MS);
}

/**
 * Modeled (sim-time) and outcome metrics pooled over the run's fleet
 * population: each fleet contributes once, the first time it runs.
 */
struct Population
{
    std::uint64_t fleets = 0;
    double makespanMs = 0;
    double restoreMs = 0;
    std::uint64_t drills = 0;
    LatencyHistogram ack;
    double stored = 0;
    double written = 0;
    double intact = 0;
    std::uint64_t infected = 0;
    std::uint64_t verdictsRight = 0;
    std::uint64_t devices = 0;
    std::uint64_t detected = 0;
    std::uint64_t classMatches = 0;

    void add(fleet::FleetScheduler &sched, const fleet::FleetReport &rep,
             const forensics::ForensicsReport &fr,
             const DeviceTotals &campaign);
    void put(Metrics &m) const;
};

void
Population::add(fleet::FleetScheduler &sched, const fleet::FleetReport &rep,
                const forensics::ForensicsReport &fr,
                const DeviceTotals &campaign)
{
    fleets++;
    makespanMs += ms(rep.makespan);
    ack.merge(rep.offloadAckLatency);

    // P3: the replica-aware plan. A fleet with nothing to restore
    // gets a whole-fleet restore drill under the same policy, so the
    // metric stays defined (see README.md).
    Tick restore = 0;
    for (const forensics::RestorePlan &p : fr.plans) {
        if (p.policy == forensics::PlanPolicy::ReplicaAware)
            restore = p.makespan;
    }
    if (restore == 0) {
        drills++;
        restore = forensics::planRestores(
                      restoreJobs(*sched.evidenceScanner(),
                                  fr.correlation.findings, false),
                      forensics::PlanPolicy::ReplicaAware, {})
                      .makespan;
    }
    restoreMs += ms(restore);

    stored += static_cast<double>(rep.totalBytesStored);
    written += static_cast<double>(campaign.hostWrites) *
               sched.device(0).pageSize();

    // Outcomes against ground truth. Victim pages are intact after
    // executed recovery for restored devices, after the campaign for
    // the rest.
    std::vector<double> dev_intact(rep.deviceReports.size(), 1.0);
    std::vector<bool> dev_infected(rep.deviceReports.size(), false);
    for (const fleet::DeviceReport &d : rep.deviceReports) {
        dev_intact[d.device] = d.victimIntact;
        dev_infected[d.device] = d.role != "benign";
    }
    for (const forensics::RecoveryOutcome &r : fr.recovery)
        dev_intact[r.device] = r.victimIntactAfter;
    for (std::size_t i = 0; i < dev_intact.size(); i++) {
        if (dev_infected[i]) {
            intact += dev_intact[i];
            infected++;
        }
    }
    for (const forensics::DeviceFinding &f : fr.correlation.findings) {
        if (f.finding.detected == dev_infected[f.device])
            verdictsRight++;
    }
    devices += rep.deviceReports.size();
    detected += fr.correlation.infectionOrder.size();
    classMatches += fr.campaignClassMatch ? 1 : 0;
}

void
Population::put(Metrics &m) const
{
    const double n = static_cast<double>(fleets);
    m.put("fleets", n);
    m.put("sim_makespan_ms", makespanMs / n);
    m.put("sim_ack_p99_ms", percentileMs(ack, 99));
    m.put("sim_restore_makespan_ms", restoreMs / n);
    m.put("restore_drills", static_cast<double>(drills));
    m.put("stored_per_written", ratio(stored, written));
    // With no infected device no victim page was damaged.
    m.put("victims_intact_ratio",
          infected ? intact / static_cast<double>(infected) : 1.0);
    m.put("verdict_accuracy", ratio(static_cast<double>(verdictsRight),
                                    static_cast<double>(devices)));
    m.put("devices_detected", static_cast<double>(detected));
    m.put("class_matches", static_cast<double>(classMatches));
}

// -- timed ----------------------------------------------------------------

/**
 * Fleet k of the run seeded @p seed. The population of kFleets fleets
 * is the run's input: pooling the modeled metrics over several fleets
 * keeps them steady from seed to seed, and the host-time medians
 * cover the same mix in every run.
 */
fleet::FleetConfig
fleetOf(const Workload &w, std::uint64_t seed, std::uint64_t k)
{
    return w.make(seed * kFleets + k);
}

int
runTimed(const Workload &w, std::uint64_t seed, double seconds)
{
    std::vector<std::string> fleet_sha(kFleets), fx_sha(kFleets);
    Population pop;
    const double start = wallNow();

    // Iteration 0 runs fleet 0 to warm caches and the allocator and
    // is not timed; timed iteration i runs fleet (i - 1) mod kFleets.
    for (std::uint64_t iter = 0;; iter++) {
        if (iter > kFleets && wallNow() - start >= seconds)
            break;
        const std::uint64_t k = iter == 0 ? 0 : (iter - 1) % kFleets;
        const fleet::FleetConfig cfg = fleetOf(w, seed, k);

        const double t0 = wallNow();
        auto sched = std::make_unique<fleet::FleetScheduler>(cfg);
        const double t1 = wallNow();
        const fleet::FleetReport rep = sched->run();
        const double t2 = wallNow();
        // Before recovery writes restored pages back to the devices.
        const DeviceTotals totals = deviceTotals(*sched);
        const double t3 = wallNow();
        const forensics::ForensicsReport fr = sched->runForensics();
        const double t4 = wallNow();

        const std::string rep_sha = digestOf(rep.toJson());
        const std::string fr_sha = digestOf(fr.toJson());
        std::string check = checkIteration(w.name, rep, fr);
        if (fleet_sha[k].empty()) {
            fleet_sha[k] = rep_sha;
            fx_sha[k] = fr_sha;
            pop.add(*sched, rep, fr, totals);
        } else if (check.empty() &&
                   (rep_sha != fleet_sha[k] || fr_sha != fx_sha[k])) {
            check = "reports differ from this fleet's first iteration";
        }

        Metrics it;
        it.str("kind", "iteration");
        it.put("iter", static_cast<double>(iter));
        it.put("fleet", static_cast<double>(k));
        it.put("setup_s", t1 - t0);
        it.put("campaign_s", t2 - t1);
        it.put("forensics_s", t4 - t3);
        it.str("fleet_sha256", rep_sha);
        it.str("forensics_sha256", fr_sha);
        it.put("host_ops", static_cast<double>(totals.hostOps()));
        it.put("op_errors", static_cast<double>(totals.deviceFullErrors));
        it.str("check", check);
        std::printf("%s\n", it.finish().c_str());
        std::fflush(stdout);
    }

    for (std::uint64_t i = 0; i < kSetupSamples; i++) {
        const double t0 = wallNow();
        const fleet::FleetScheduler sched(fleetOf(w, seed, i % kFleets));
        const double t1 = wallNow();
        Metrics it;
        it.str("kind", "setup");
        it.put("setup_s", t1 - t0);
        std::printf("%s\n", it.finish().c_str());
    }

    Metrics summary;
    summary.str("kind", "summary");
    pop.put(summary);
    summary.put("peak_rss_MiB", peakRssMiB());
    std::printf("%s\n", summary.finish().c_str());
    return 0;
}

// -- traced ---------------------------------------------------------------

/**
 * Host-time spans kept in memory and written once at exit. Each span
 * carries its own id and its parent's as arguments; timestamps are
 * microseconds since the traced iteration began.
 */
class HostTrace
{
  public:
    static constexpr std::uint64_t kPid = 1;
    static constexpr std::uint64_t kTid = 1;

    HostTrace()
    {
        sink_.setProcessName(kPid, "fleetbench");
        sink_.setThreadName(kPid, kTid, "main");
    }

    /** Time @p fn as span @p name under the innermost open span;
     *  returns its wall duration in seconds. */
    double
    span(const char *name, const std::function<void()> &fn)
    {
        const std::uint64_t id = ++lastId_;
        const std::uint64_t parent = open_.empty() ? 0 : open_.back();
        open_.push_back(id);
        const double t0 = wallNow();
        fn();
        const double t1 = wallNow();
        open_.pop_back();
        sink_.complete("fleetbench", name, kPid, kTid, micros(t0),
                       micros(t1), {{"span", id}, {"parent", parent}});
        return t1 - t0;
    }

    std::string json() const { return sink_.toChromeJson(); }

  private:
    Tick
    micros(double t) const
    {
        return static_cast<Tick>((t - origin_) * 1e6);
    }

    obs::TraceSink sink_;
    double origin_ = wallNow();
    std::uint64_t lastId_ = 0;
    std::vector<std::uint64_t> open_;
};

/** Bytes of page content the workload's generators produce. */
std::uint64_t
generatorProbe(const fleet::FleetConfig &cfg, fleet::FleetScheduler &sched)
{
    // The same per-device seed draws FleetScheduler makes, so the
    // probe walks the workload's own benign stream.
    Rng master(cfg.seed);
    const std::uint64_t pages = sched.device(0).capacityPages();
    const std::uint32_t page_size = sched.device(0).pageSize();
    std::uint64_t bytes = 0;
    for (std::uint32_t id = 0; id < cfg.devices; id++) {
        master.next(); // think-time stream
        const std::uint64_t gen_seed = master.next();
        const std::uint64_t content_seed = master.next();
        master.next(); // victim
        const std::uint64_t attack_seed = master.next();
        workload::TraceGenerator gen(cfg.profile, pages, gen_seed);
        compress::DataGenerator content(content_seed,
                                        cfg.profile.compressibility);
        for (std::uint64_t op = 0; op < cfg.opsPerDevice; op++) {
            const workload::Request r = gen.next();
            if (r.op != nvme::Opcode::Write)
                continue;
            for (std::uint32_t p = 0; p < r.npages; p++)
                bytes += content.page(page_size).size();
        }
        // Flooders add incompressible junk pages.
        if (sched.plan(id).role == fleet::DeviceRole::Flooder) {
            compress::DataGenerator junk(attack_seed, 0.0);
            for (std::uint64_t p = 0; p < cfg.campaign.floodPages; p++)
                bytes += junk.page(page_size).size();
        }
    }
    return bytes;
}

int
runTraced(const Workload &w, std::uint64_t seed, const std::string &path)
{
    const fleet::FleetConfig cfg = fleetOf(w, seed, 0);
    HostTrace trace;
    Metrics m;

    std::unique_ptr<fleet::FleetScheduler> sched;
    fleet::FleetReport rep;
    forensics::ForensicsReport fr;
    DeviceTotals totals;
    std::string fleet_json, fx_json;
    double run_s = 0, fx_s = 0, report_s = 0, audit_s = 0;
    double scan_s = 0, correlate_s = 0, plan_s = 0, history_s = 0;
    double seal_s = 0, verify_s = 0, open_s = 0, gen_s = 0;
    std::uint64_t seal_bytes = 0, verify_bytes = 0, open_bytes = 0;
    std::uint64_t copies = 0, copies_matched = 0, gen_bytes = 0;
    bool audit_ok = true;
    forensics::ScanPassCost scan_cost;

    trace.span("iteration", [&] {
        trace.span("FleetScheduler", [&] {
            sched = std::make_unique<fleet::FleetScheduler>(cfg);
        });
        run_s = trace.span("run", [&] { rep = sched->run(); });
        totals = deviceTotals(*sched);
        report_s += trace.span("FleetReport::toJson",
                               [&] { fleet_json = rep.toJson(); });

        const remote::BackupCluster &cluster = sched->cluster();
        audit_s = trace.span("probe.audit (estimate)", [&] {
            for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
                if (cluster.shardAlive(s))
                    audit_ok = cluster.shardStore(s).verifyFullChain() &&
                               audit_ok;
            }
        });

        // Codec round trip over every stored copy, one shard at a
        // time: verify, open, then re-seal and compare bytes.
        trace.span("probe.codec", [&] {
            for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
                if (!cluster.shardAlive(s))
                    continue;
                const remote::BackupStore &store = cluster.shardStore(s);
                struct Copy
                {
                    const log::SealedSegment *sealed;
                    const log::SegmentCodec *codec;
                    bool ok;
                };
                std::vector<Copy> shard_copies;
                for (const remote::StreamId stream : store.streamIds()) {
                    for (const std::uint32_t idx :
                         store.streamSegments(stream)) {
                        shard_copies.push_back({&store.sealedSegment(idx),
                                                &store.streamCodec(stream),
                                                false});
                    }
                }
                copies += shard_copies.size();
                verify_s += trace.span("SegmentCodec::verify", [&] {
                    for (Copy &c : shard_copies) {
                        c.ok = c.codec->verify(*c.sealed);
                        verify_bytes += c.sealed->payload.size();
                    }
                });
                std::vector<log::Segment> opened(shard_copies.size());
                open_s += trace.span("SegmentCodec::open", [&] {
                    for (std::size_t i = 0; i < shard_copies.size(); i++) {
                        if (!shard_copies[i].ok)
                            continue;
                        opened[i] = shard_copies[i].codec->open(
                            *shard_copies[i].sealed);
                        open_bytes += shard_copies[i].sealed->rawSize;
                    }
                });
                seal_s += trace.span("SegmentCodec::seal", [&] {
                    for (std::size_t i = 0; i < shard_copies.size(); i++) {
                        if (!shard_copies[i].ok)
                            continue;
                        const log::SealedSegment &orig =
                            *shard_copies[i].sealed;
                        const log::SealedSegment again =
                            shard_copies[i].codec->seal(opened[i]);
                        seal_bytes += orig.rawSize;
                        if (again.payload == orig.payload &&
                            again.hmac == orig.hmac)
                            copies_matched++;
                    }
                });
            }
        });

        // A fresh scanner repeats runForensics()'s scan; correlate
        // and plan run over it. All three read the cluster only.
        {
            forensics::EvidenceScanner scanner(cluster);
            const forensics::ForensicsConfig fcfg;
            scan_s = trace.span("probe.scan (estimate)",
                                [&] { scan_cost = scanner.scan(); });
            forensics::Correlation corr;
            correlate_s = trace.span("probe.correlate", [&] {
                corr = forensics::correlate(scanner, fcfg.correlation);
            });
            plan_s = trace.span("probe.plan", [&] {
                const auto jobs =
                    restoreJobs(scanner, corr.findings, true);
                for (const auto policy :
                     {forensics::PlanPolicy::GreedyMostDamagedFirst,
                      forensics::PlanPolicy::FairShare,
                      forensics::PlanPolicy::ReplicaAware})
                    forensics::planRestores(jobs, policy, fcfg.planner);
            });
        }

        fx_s = trace.span("runForensics",
                          [&] { fr = sched->runForensics(); });
        report_s += trace.span("ForensicsReport::toJson",
                               [&] { fx_json = fr.toJson(); });

        history_s = trace.span("probe.history (estimate)", [&] {
            for (const forensics::RecoveryOutcome &r : fr.recovery) {
                trace.span("DeviceHistory", [&] {
                    const core::DeviceHistory history(
                        sched->device(static_cast<std::uint32_t>(r.device)),
                        sched->cluster(), r.device);
                });
            }
        });

        gen_s = trace.span("probe.generator", [&] {
            gen_bytes = generatorProbe(cfg, *sched);
        });
    });

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "fleetbench: cannot write %s\n", path.c_str());
        return 1;
    }
    const std::string trace_json = trace.json();
    std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    std::fclose(f);

    std::string check = checkIteration(w.name, rep, fr);
    if (check.empty() && !audit_ok)
        check = "audit probe: a live shard failed verifyFullChain";
    if (check.empty() && copies_matched != copies)
        check = "codec round trip: seal(open(s)) differs from a "
                "stored copy";

    std::uint64_t pages_restored = 0;
    for (const forensics::RecoveryOutcome &r : fr.recovery)
        pages_restored += r.pagesRestored;

    std::uint64_t accepted = 0, rejected = 0, batches = 0, stalls = 0;
    const remote::BackupCluster &cluster = sched->cluster();
    for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
        const remote::ShardIngestStats &st = cluster.shardStats(s);
        accepted += st.segmentsAccepted;
        rejected += st.segmentsRejected;
        batches += st.batches;
        stalls += st.backpressureStalls;
    }

    m.str("kind", "traced");
    m.str("check", check);
    m.str("fleet_sha256", digestOf(fleet_json));
    m.str("forensics_sha256", digestOf(fx_json));
    m.put("host_ops_total", static_cast<double>(totals.hostOps()));
    m.put("op_errors", static_cast<double>(totals.deviceFullErrors));
    m.put("codec_copies", static_cast<double>(copies));
    m.put("codec_copies_matched", static_cast<double>(copies_matched));

    m.put("fleet.run_s", run_s);
    m.put("fleet.forensics_s", fx_s);
    m.put("fleet.report_s", report_s);
    m.put("fleet.host_ops", static_cast<double>(totals.hostOps()));

    m.put("workload.gen_MiB_per_s", ratio(mib(gen_bytes), gen_s));

    m.put("ftl.host_reads", static_cast<double>(totals.hostReads));
    m.put("ftl.host_writes", static_cast<double>(totals.hostWrites));
    m.put("ftl.gc_moves", static_cast<double>(totals.gcMoves));
    m.put("flash.reads", static_cast<double>(totals.flashReads));
    m.put("flash.programs", static_cast<double>(totals.flashPrograms));
    m.put("flash.erases", static_cast<double>(totals.flashErases));

    m.put("detect.alarms", static_cast<double>(rep.totalAlarms));

    m.put("log.seal_MiB_per_s", ratio(mib(seal_bytes), seal_s));
    m.put("log.verify_MiB_per_s", ratio(mib(verify_bytes), verify_s));
    m.put("log.open_MiB_per_s", ratio(mib(open_bytes), open_s));
    m.put("log.compress_ratio",
          ratio(static_cast<double>(totals.bytesRaw),
                static_cast<double>(totals.bytesSealed)));

    m.put("core.offload.segments_sealed",
          static_cast<double>(totals.segmentsSealed));
    m.put("core.offload.sealed_MiB", mib(totals.bytesSealed));
    m.put("core.offload.parks", static_cast<double>(totals.parks));
    m.put("core.offload.resubmits", static_cast<double>(totals.resubmits));
    m.put("core.offload.resubmits_per_sealed",
          ratio(static_cast<double>(totals.resubmits),
                static_cast<double>(totals.segmentsSealed)));
    m.put("core.seal_p99_ms", percentileMs(rep.sealLatency, 99));
    m.put("core.history_s", history_s);
    m.put("core.recover_s",
          fx_s - scan_s - correlate_s - plan_s - history_s);
    m.put("core.pages_restored", static_cast<double>(pages_restored));

    m.put("net.wire_MiB", mib(totals.wireBytes));
    m.put("net.retransmits", static_cast<double>(totals.retransmits));
    m.put("net.retransmits_per_sent",
          ratio(static_cast<double>(totals.retransmits),
                static_cast<double>(totals.segmentsSent)));

    m.put("remote.audit_s", audit_s);
    m.put("remote.segments_accepted", static_cast<double>(accepted));
    m.put("remote.segments_rejected", static_cast<double>(rejected));
    m.put("remote.accepted_per_offered",
          ratio(static_cast<double>(accepted),
                static_cast<double>(accepted + rejected)));
    m.put("remote.batches", static_cast<double>(batches));
    m.put("remote.backpressure_stalls", static_cast<double>(stalls));
    m.put("remote.ack_p99_ms", percentileMs(rep.offloadAckLatency, 99));
    m.put("remote.queue_wait_p99_ms",
          percentileMs(rep.queueWaitLatency, 99));
    m.put("remote.quorum_wait_p99_ms",
          percentileMs(rep.quorumWaitLatency, 99));
    m.put("remote.segments_pruned",
          static_cast<double>(rep.totalSegmentsPruned));
    m.put("remote.stored_MiB", mib(rep.totalBytesStored));
    m.put("remote.repair.segments_copied",
          static_cast<double>(rep.repairStats.segmentsCopied));
    m.put("remote.repair.scrub_passes",
          static_cast<double>(rep.repairStats.scrubPasses));
    m.put("remote.repair.copy_p99_ms",
          percentileMs(rep.repairCopyLatency, 99));

    m.put("forensics.scan_s", scan_s);
    m.put("forensics.correlate_s", correlate_s);
    m.put("forensics.plan_s", plan_s);
    m.put("forensics.MiB_verified", mib(scan_cost.bytesVerified));
    m.put("forensics.entries_replayed",
          static_cast<double>(scan_cost.entriesReplayed));

    std::printf("%s\n", m.finish().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: fleetbench timed --workload W --seed S "
                 "--seconds T\n"
                 "       fleetbench traced --workload W --seed S "
                 "--trace-out PATH\n"
                 "workloads: outbreak_r3_repair benign_readmostly "
                 "shardflood_gc\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string workload, trace_out;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool have_seed = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace-out")
            trace_out = value;
        else
            return usage();
    }
    if (argc % 2 != 0 || !have_seed)
        return usage();
    const Workload *w = findWorkload(workload);
    if (w == nullptr)
        return usage();
    if (mode == "timed" && seconds > 0)
        return runTimed(*w, seed, seconds);
    if (mode == "traced" && !trace_out.empty())
        return runTraced(*w, seed, trace_out);
    return usage();
}
