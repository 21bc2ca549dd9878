/**
 * @file
 * Fleet-level tests for the health layer: the sampler actor on the
 * DES spine, default SLO rules, the FleetReport `health` block, and
 * the determinism contract (same seed + config => byte-identical
 * time-series JSONL and report).
 *
 * The crash-mid-outbreak campaign pins the acceptance alert
 * sequence: crashing a shard under a throttled repair budget raises
 * `repair_debt`, and the alert clears at the final sample once the
 * engine converged (repairConvergedAt) — alarms fire during the
 * incident and stand down after the cluster heals itself.
 */

#include <string>

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "fleet/scheduler.hh"

#include "tests/common/json_checker.hh"

namespace rssd::fleet {
namespace {

using test::JsonChecker;

FleetConfig
healthFleet(Scenario scenario)
{
    FleetConfig cfg;
    cfg.devices = 6;
    cfg.shards = 2;
    cfg.seed = 7;
    cfg.opsPerDevice = 60;
    cfg.campaign.scenario = scenario;
    cfg.campaign.victimPages = 16;
    cfg.health.interval = 1 * units::MS;
    return cfg;
}

/** The acceptance crash campaign under a throttled repair budget:
 *  the only configuration in the suite where repair debt is old
 *  enough to breach the default repair_debt rule. */
FleetConfig
crashCampaign()
{
    FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.replication = 3;
    cfg.seed = 7;
    cfg.opsPerDevice = 40;
    cfg.campaign.scenario = Scenario::Outbreak;
    cfg.campaign.victimPages = 16;
    cfg.membership.push_back(
        {100 * units::MS, MembershipKind::CrashShard, 1});
    cfg.repair.enabled = true;
    cfg.repair.bandwidthBytesPerSec = 1 * units::MiB;
    cfg.repair.burstBytes = 64 * units::KiB;
    cfg.health.interval = 1 * units::MS;
    return cfg;
}

TEST(FleetHealth, DisabledByDefaultAndReportSaysSo)
{
    FleetConfig cfg = healthFleet(Scenario::Benign);
    cfg.health.interval = 0;
    FleetScheduler sched(cfg);
    EXPECT_EQ(sched.healthSampler(), nullptr);
    EXPECT_EQ(sched.healthMonitor(), nullptr);
    const FleetReport rep = sched.run();
    EXPECT_FALSE(rep.health.enabled);
    EXPECT_EQ(rep.health.samples, 0u);
    EXPECT_TRUE(sched.healthTimeSeriesJsonl().empty());
    // The block is present (schema stability) even when disabled.
    EXPECT_NE(rep.toJson().find("\"health\":{\"enabled\":false,"),
              std::string::npos);
}

TEST(FleetHealth, BenignRunRaisesNothing)
{
    FleetScheduler sched(healthFleet(Scenario::Benign));
    const FleetReport rep = sched.run();
    ASSERT_TRUE(rep.health.enabled);
    EXPECT_GT(rep.health.samples, 0u);
    EXPECT_EQ(rep.health.alertsRaised, 0u);
    EXPECT_EQ(rep.health.alertsOpen, 0u);
    EXPECT_EQ(rep.health.worstSeverity, "info");
    // Every default rule is bound and quiet.
    EXPECT_GT(rep.health.rules.size(), 0u);
    for (const HealthRuleReport &r : rep.health.rules) {
        EXPECT_EQ(r.raised, 0u) << r.id;
        EXPECT_FALSE(r.open) << r.id;
    }
}

TEST(FleetHealth, OutbreakWithDefaultRulesStaysQuiet)
{
    // An attack is not an SLO breach: the fleet keeps absorbing the
    // traffic, so the infrastructure rules must not cry wolf.
    FleetScheduler sched(healthFleet(Scenario::Outbreak));
    const FleetReport rep = sched.run();
    EXPECT_EQ(rep.health.alertsRaised, 0u);
    EXPECT_EQ(rep.health.worstSeverity, "info");
}

TEST(FleetHealth, SamplesRideTheSpineAtTheConfiguredCadence)
{
    const FleetConfig cfg = healthFleet(Scenario::Outbreak);
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    const obs::TimeSeriesSampler *s = sched.healthSampler();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(rep.health.samples, s->samples());
    // Roughly one sample per interval across the makespan (plus the
    // final end-of-run sample).
    EXPECT_GE(rep.health.samples, rep.makespan / units::MS);
    EXPECT_EQ(rep.health.lastSampleAt, s->lastSampleAt());
    // The end-of-run sample comes after every periodic one (makespan
    // itself can exceed it: it counts post-spine offload drains).
    EXPECT_GE(rep.health.lastSampleAt,
              (rep.health.samples - 1) * cfg.health.interval);

    // One JSONL row per sample, each one a self-contained object.
    const std::string &jsonl = sched.healthTimeSeriesJsonl();
    std::uint64_t rows = 0;
    std::size_t pos = 0;
    while ((pos = jsonl.find('\n', pos)) != std::string::npos) {
        rows++;
        pos++;
    }
    EXPECT_EQ(rows, rep.health.samples);
    const std::string first = jsonl.substr(0, jsonl.find('\n'));
    EXPECT_TRUE(JsonChecker(first).valid()) << first.substr(0, 200);
}

TEST(FleetHealth, SameSeedSameTelemetryBytes)
{
    const FleetConfig cfg = healthFleet(Scenario::Outbreak);
    FleetScheduler a(cfg);
    FleetScheduler b(cfg);
    const std::string ja = a.run().toJson();
    const std::string jb = b.run().toJson();
    EXPECT_EQ(ja, jb);
    EXPECT_EQ(a.healthTimeSeriesJsonl(), b.healthTimeSeriesJsonl());
    EXPECT_FALSE(a.healthTimeSeriesJsonl().empty());
}

TEST(FleetHealth, HealthLayerDoesNotPerturbTheRun)
{
    // The sampler is a read-only actor: the same campaign with and
    // without health enabled produces the identical report except
    // for the health block itself.
    FleetConfig on = healthFleet(Scenario::Outbreak);
    FleetConfig off = on;
    off.health.interval = 0;
    FleetScheduler a(on);
    FleetScheduler b(off);
    const FleetReport ra = a.run();
    const FleetReport rb = b.run();
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_EQ(ra.totalSegments, rb.totalSegments);
    EXPECT_EQ(ra.totalBytesStored, rb.totalBytesStored);
    EXPECT_EQ(ra.replicationStats.quorumWrites,
              rb.replicationStats.quorumWrites);
}

TEST(FleetHealth, CrashCampaignRaisesThenClearsRepairDebt)
{
    FleetScheduler sched(crashCampaign());
    const FleetReport rep = sched.run();
    ASSERT_TRUE(rep.health.enabled);
    EXPECT_GT(rep.repairConvergedAt, 0u);

    // The pinned acceptance sequence: exactly one episode, the
    // repair_debt rule, critical, raised after the crash and cleared
    // at the final post-convergence sample — never still open.
    ASSERT_EQ(rep.health.alerts.size(), 1u);
    const HealthAlertReport &a = rep.health.alerts[0];
    EXPECT_EQ(a.rule, "repair_debt");
    EXPECT_EQ(a.severity, "critical");
    EXPECT_FALSE(a.open);
    EXPECT_GT(a.raisedAt, 100 * units::MS);
    EXPECT_GE(a.clearedAt, rep.repairConvergedAt);
    EXPECT_EQ(a.clearedAt, rep.health.lastSampleAt);
    EXPECT_EQ(rep.health.alertsOpen, 0u);
    EXPECT_EQ(rep.health.worstSeverity, "critical");

    // Repair actually ran throttled (the debt was observable).
    EXPECT_GT(rep.repairStats.segmentsCopied, 0u);
    EXPECT_GT(rep.repairConvergedAt, rep.makespan);
}

TEST(FleetHealth, CrashCampaignWalksEachStoredCopyOnce)
{
    // The throttled repair asks chainVerifyingReplicaOf() for every
    // queued stream on every 1 ms tick, and the end-of-run audit,
    // the forensics scan and each DeviceHistory walk the same copies
    // again. Each store's verified-prefix record makes every such
    // walk extend the last one, so no store chain-walks more
    // segments than it ever accepted.
    FleetScheduler sched(crashCampaign());
    sched.run();
    const forensics::ForensicsReport fr = sched.runForensics();
    ASSERT_FALSE(fr.recovery.empty()); // DeviceHistory walks ran too

    const remote::BackupCluster &cluster = sched.cluster();
    std::uint64_t walked = 0;
    for (remote::ShardId s = 0; s < cluster.shardCount(); s++) {
        if (!cluster.shardAlive(s))
            continue;
        const remote::BackupStoreStats &st =
            cluster.shardStore(s).stats();
        EXPECT_LE(st.segmentsChainWalked, st.segmentsAccepted)
            << "shard " << s;
        walked += st.segmentsChainWalked;
    }
    EXPECT_GT(walked, 0u);
}

TEST(FleetHealth, CrashCampaignTelemetryIsDeterministic)
{
    const FleetConfig cfg = crashCampaign();
    FleetScheduler a(cfg);
    FleetScheduler b(cfg);
    EXPECT_EQ(a.run().toJson(), b.run().toJson());
    EXPECT_EQ(a.healthTimeSeriesJsonl(), b.healthTimeSeriesJsonl());
}

TEST(FleetHealth, CrashCampaignGoldenDigests)
{
    // Pins the spine's tie-breaks at a shared tick: devices, then
    // scripted faults, then the repair engine, then the sampler. With
    // the sampler ahead of the engine, repair_debt is raised at
    // 107 ms instead of 106 ms and both documents change.
    FleetScheduler sched(crashCampaign());
    const std::string report = sched.run().toJson();
    const std::string &jsonl = sched.healthTimeSeriesJsonl();
    EXPECT_EQ(crypto::toHex(
                  crypto::Sha256::hash(report.data(), report.size())),
              "16ffe0acb999b2f8c817eb8e8b5df27c6f248f4b2c0f21fa013"
              "e0df0ae5c7dd7");
    EXPECT_EQ(crypto::toHex(
                  crypto::Sha256::hash(jsonl.data(), jsonl.size())),
              "6f71c9c87c833c0194d9ff9e90ce877544b10736cbc72b077e9"
              "7ae41708a27d6");
}

TEST(FleetHealth, DefaultRulesCoverTheFailureDomains)
{
    // Repair off: the repair rules must not bind (their metrics do
    // not exist); repair+scrub on: all six domains are covered.
    FleetConfig cfg = healthFleet(Scenario::Benign);
    auto ids = [](const std::vector<obs::HealthRule> &rules) {
        std::string joined;
        for (const obs::HealthRule &r : rules)
            joined += r.id + ",";
        return joined;
    };

    const std::string base = ids(defaultHealthRules(cfg));
    EXPECT_NE(base.find("quorum_stall,"), std::string::npos) << base;
    EXPECT_NE(base.find("offload_parked,"), std::string::npos);
    EXPECT_NE(base.find("shard_backlog,"), std::string::npos);
    EXPECT_NE(base.find("gc_reject,"), std::string::npos);
    EXPECT_EQ(base.find("repair_debt"), std::string::npos);
    EXPECT_EQ(base.find("scrub_rot"), std::string::npos);

    cfg.repair.enabled = true;
    cfg.repair.scrubInterval = 10 * units::MS;
    const std::string full = ids(defaultHealthRules(cfg));
    EXPECT_NE(full.find("repair_debt,"), std::string::npos) << full;
    EXPECT_NE(full.find("scrub_rot,"), std::string::npos);

    // And the full set binds cleanly against a real fleet.
    FleetScheduler sched(cfg);
    ASSERT_NE(sched.healthMonitor(), nullptr);
    EXPECT_EQ(sched.healthMonitor()->rules().size(), 6u);
}

} // namespace
} // namespace rssd::fleet
