/**
 * @file
 * Fleet simulation tests: scenario semantics, cross-run determinism,
 * and the golden-digest pin for the FleetReport JSON.
 *
 * Determinism is a hard requirement (same seed + same config =>
 * byte-identical FleetReport). Like tests/log/seal_determinism_test,
 * the golden digest below was captured from a known-good run; any
 * change that perturbs event ordering, RNG consumption, JSON
 * formatting, or aggregate arithmetic fails here rather than
 * silently forking fleet results between PRs.
 */

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "fleet/scheduler.hh"

#include "tests/common/json_checker.hh"

namespace rssd::fleet {
namespace {

FleetConfig
smallFleet(Scenario scenario, std::uint64_t seed)
{
    FleetConfig cfg;
    cfg.devices = 6;
    cfg.shards = 2;
    cfg.seed = seed;
    cfg.opsPerDevice = 60;
    cfg.campaign.scenario = scenario;
    cfg.campaign.victimPages = 16;
    cfg.campaign.floodPages = 128;
    return cfg;
}

std::string
jsonDigest(const FleetReport &report)
{
    const std::string json = report.toJson();
    return crypto::toHex(
        crypto::Sha256::hash(json.data(), json.size()));
}

using test::JsonChecker;

TEST(FleetSim, BenignFleetHasNoAttackTraffic)
{
    FleetScheduler sched(smallFleet(Scenario::Benign, 5));
    const FleetReport rep = sched.run();
    EXPECT_EQ(rep.totalPagesEncrypted, 0u);
    EXPECT_EQ(rep.totalJunkPages, 0u);
    EXPECT_TRUE(rep.allChainsOk);
    EXPECT_GT(rep.totalSegments, 0u);
    for (const DeviceReport &d : rep.deviceReports) {
        EXPECT_EQ(d.role, "benign");
        EXPECT_EQ(d.benignOps, 60u);
        EXPECT_DOUBLE_EQ(d.victimIntact, 1.0);
    }
}

TEST(FleetSim, OutbreakEncryptsEveryVictimEverywhere)
{
    FleetConfig cfg = smallFleet(Scenario::Outbreak, 7);
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    EXPECT_EQ(rep.totalPagesEncrypted,
              static_cast<std::uint64_t>(cfg.devices) *
                  cfg.campaign.victimPages);
    EXPECT_TRUE(rep.allChainsOk);
    for (const DeviceReport &d : rep.deviceReports) {
        EXPECT_EQ(d.role, "encryptor");
        EXPECT_EQ(d.attack.startedAt >= cfg.campaign.attackStart,
                  true);
        EXPECT_LT(d.victimIntact, 0.5); // encrypted, not recovered
    }
}

TEST(FleetSim, StaggeredDevicesTurnInOrder)
{
    FleetConfig cfg = smallFleet(Scenario::Staggered, 9);
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    for (std::uint32_t i = 1; i < cfg.devices; i++) {
        EXPECT_EQ(rep.deviceReports[i].attackStart -
                      rep.deviceReports[i - 1].attackStart,
                  cfg.campaign.stagger);
        EXPECT_GE(rep.deviceReports[i].attack.startedAt,
                  rep.deviceReports[i].attackStart);
    }
}

TEST(FleetSim, ShardFloodTargetsOneShard)
{
    FleetConfig cfg = smallFleet(Scenario::ShardFlood, 11);
    cfg.devices = 8;
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();

    // Exactly the devices on the hot shard flood; everyone else
    // encrypts.
    remote::ShardId hot = remote::kNoShard;
    for (const DeviceReport &d : rep.deviceReports) {
        if (d.role == "flooder") {
            if (hot == remote::kNoShard)
                hot = d.shard;
            EXPECT_EQ(d.shard, hot);
            EXPECT_EQ(d.attack.junkPagesWritten,
                      cfg.campaign.floodPages);
        } else {
            EXPECT_EQ(d.role, "encryptor");
            EXPECT_EQ(d.attack.junkPagesWritten, 0u);
        }
    }
    ASSERT_NE(hot, remote::kNoShard);

    // The flooded shard ingests more than any other shard.
    std::uint64_t hot_segments = 0;
    std::uint64_t cold_max = 0;
    for (const ShardReport &s : rep.shardReports) {
        if (s.shard == hot)
            hot_segments = s.segmentsAccepted;
        else
            cold_max = std::max(cold_max, s.segmentsAccepted);
    }
    EXPECT_GT(hot_segments, cold_max);
    EXPECT_TRUE(rep.allChainsOk);
}

TEST(FleetSim, DetectorsAlarmOnInfectedDevicesOnly)
{
    FleetConfig cfg = smallFleet(Scenario::Outbreak, 13);
    cfg.campaign.victimPages = 32;
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    for (const DeviceReport &d : rep.deviceReports) {
        EXPECT_GT(d.alarms, 0u) << "device " << d.device;
        EXPECT_EQ(d.firstAlarmDetector, "entropy-overwrite");
    }
}

TEST(FleetSim, ReportIsWellFormedJson)
{
    FleetScheduler sched(smallFleet(Scenario::ShardFlood, 21));
    const std::string json = sched.run().toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

    // The checker itself must reject the bug class it guards
    // against (missing commas, truncation).
    EXPECT_FALSE(JsonChecker("{\"a\":1\"b\":2}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1,").valid());
    EXPECT_FALSE(JsonChecker("[1 2]").valid());
    EXPECT_TRUE(JsonChecker(
                    "{\"a\":[1,2],\"b\":{\"c\":true,\"d\":\"x\"}}")
                    .valid());
}

TEST(FleetSim, ReportLeadsWithSchemaVersion)
{
    FleetScheduler sched(smallFleet(Scenario::Benign, 3));
    const std::string json = sched.run().toJson();
    const std::string expect =
        "{\"schema\":" + std::to_string(kFleetReportSchema) + ",";
    EXPECT_EQ(json.rfind(expect, 0), 0u) << json.substr(0, 40);
}

TEST(FleetSim, SameSeedSameBytes)
{
    const FleetConfig cfg = smallFleet(Scenario::Outbreak, 7);
    FleetScheduler a(cfg);
    FleetScheduler b(cfg);
    EXPECT_EQ(a.run().toJson(), b.run().toJson());
}

TEST(FleetSim, DifferentSeedDifferentBytes)
{
    FleetScheduler a(smallFleet(Scenario::Outbreak, 7));
    FleetScheduler b(smallFleet(Scenario::Outbreak, 8));
    EXPECT_NE(a.run().toJson(), b.run().toJson());
}

TEST(FleetSim, ImpossibleConfigExitsThroughFatalAtConstruction)
{
    // A configuration error is the user's, not a simulator bug: it
    // exits 1 through fatal() before any simulated time passes,
    // instead of aborting (or aborting mid-run, for fault targets).
    const auto fails = [](FleetConfig cfg, const char *message) {
        EXPECT_EXIT(FleetScheduler sched(cfg),
                    ::testing::ExitedWithCode(1), message);
    };
    FleetConfig cfg = smallFleet(Scenario::Outbreak, 7);
    cfg.devices = 0;
    fails(cfg, "fatal: FleetScheduler: zero devices");
    cfg = smallFleet(Scenario::Outbreak, 7);
    cfg.shards = 0;
    fails(cfg, "fatal: FleetScheduler: zero shards");
    cfg = smallFleet(Scenario::Outbreak, 7);
    cfg.meanOpGap = 0;
    fails(cfg, "fatal: FleetScheduler: meanOpGap == 0");
    cfg = smallFleet(Scenario::Outbreak, 7);
    cfg.replication = 0;
    fails(cfg, "fatal: FleetScheduler: replication == 0");
    cfg.replication = 3;
    fails(cfg, "fatal: FleetScheduler: replication exceeds shards");

    // Fault targets: a crash or leave may name an initial shard or a
    // scripted joiner's id (2 here, once a join is listed), nothing
    // past that; a bit-rot must name a device of the fleet.
    cfg = smallFleet(Scenario::Outbreak, 7);
    cfg.membership = {{60 * units::MS, MembershipKind::CrashShard, 2}};
    fails(cfg, "fatal: FleetScheduler: membership event targets "
               "unknown shard 2");
    cfg.membership = {{60 * units::MS, MembershipKind::LeaveShard, 9}};
    fails(cfg, "fatal: FleetScheduler: membership event targets "
               "unknown shard 9");
    cfg.membership = {{60 * units::MS, MembershipKind::CrashShard, 2},
                      {50 * units::MS, MembershipKind::JoinShard, 0}};
    FleetScheduler joiner_target(cfg);
    EXPECT_EQ(joiner_target.cluster().shardCount(), 2u);
    cfg.membership.clear();
    cfg.bitRot = {{60 * units::MS, 6, 1, 2}};
    fails(cfg, "fatal: FleetScheduler: bit-rot targets unknown "
               "device 6");
}

TEST(FleetSim, GoldenReportDigest)
{
    // The acceptance configuration: 16 devices -> 4 shards, outbreak,
    // seed 7 (the rssd_fleet CLI's smoke run shares scenario/seed).
    FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.seed = 7;
    cfg.opsPerDevice = 40;
    cfg.campaign.scenario = Scenario::Outbreak;
    cfg.campaign.victimPages = 16;

    FleetScheduler sched(cfg);
    const std::string digest = jsonDigest(sched.run());
    // Digest history (every bump must name its schema change):
    //   622082...ca02e — schema 1 (PR 3, no schema field)
    //   8a775b...95a6  — schema 2 (PR 4: "schema" field added)
    //   f7d689...af10  — schema 3 (PR 5: retention-GC lifecycle —
    //                    per-shard rejectedBytes/segmentsPruned/
    //                    bytesPruned/heldStreams, totals
    //                    segmentsPruned/bytesPruned, per-device
    //                    remoteRejects)
    //   179616...c39c  — schema 4 (PR 6: replication & membership —
    //                    fleet replication/liveShards, per-device
    //                    replicas, per-shard status/duplicates,
    //                    totals quorum/migration counters)
    //   8606a6...4eea  — schema 5 (PR 7: anti-entropy — "repair"
    //                    totals block, per-device replicasLive/
    //                    quarantinedCopies, per-shard quarantined)
    //   c2b205...2cb2b4 — schema 6 (PR 8: latency attribution —
    //                    totals offloadAckP50Ns/offloadAckP99Ns and
    //                    the per-stage "latency" block: seal,
    //                    queueWait, quorumWait, repairCopy)
    //   current        — schema 7 (PR 9: fleet health — per-device
    //                    parks/resubmits, top-level "health" block:
    //                    sampler totals, SLO rules, alerts)
    EXPECT_EQ(digest,
              "88086b5f07a7060177d8cc50ffb11e8ae696d24ecf475d9c6ca"
              "5d6c2d9daa728");
}

TEST(FleetSim, CrashMidOutbreakLosesNoEvidence)
{
    // The paper's evidence-loss scenario: the acceptance outbreak
    // with R=3 and one shard fail-stopping mid-campaign (after the
    // malware turned, before the fleet drained). Durability claim:
    // forensics reaches the same conclusions as the crash-free run's
    // ground truth and every victim restores to 100% intact — read
    // entirely from surviving replicas.
    FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.replication = 3;
    cfg.seed = 7;
    cfg.opsPerDevice = 40;
    cfg.campaign.scenario = Scenario::Outbreak;
    cfg.campaign.victimPages = 16;
    cfg.membership.push_back({60 * units::MS,
                              MembershipKind::CrashShard, 1});

    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    EXPECT_EQ(rep.replication, 3u);
    EXPECT_EQ(rep.liveShards, 3u);
    EXPECT_EQ(rep.shardReports[1].status, "crashed");
    EXPECT_TRUE(rep.allChainsOk);
    // The crash actually bit: some quorum acks were partial.
    EXPECT_GT(rep.replicationStats.partialWrites, 0u);
    EXPECT_EQ(rep.replicationStats.quorumStalls, 0u); // R=3 absorbs 1

    const forensics::ForensicsReport fr = sched.runForensics();
    EXPECT_TRUE(fr.patientZeroMatch);
    EXPECT_TRUE(fr.infectionOrderMatch);
    EXPECT_TRUE(fr.campaignClassMatch);
    ASSERT_GT(fr.recovery.size(), 0u);
    for (const forensics::RecoveryOutcome &o : fr.recovery) {
        EXPECT_DOUBLE_EQ(o.victimIntactAfter, 1.0)
            << "device " << o.device;
        EXPECT_EQ(o.unresolved, 0u) << "device " << o.device;
        // Never sourced from the dead shard.
        EXPECT_NE(o.restoredFromShard, 1u) << "device " << o.device;
        EXPECT_NE(o.restoredFromShard, remote::kNoShard);
    }

    // Zero evidence loss is pinned byte-for-byte: the crash run has
    // its own golden digest (same discipline as GoldenReportDigest).
    EXPECT_EQ(jsonDigest(rep),
              "ac4b6ff0bb3edb7700dbda9620d7c1106d69b71c651cdd511f8"
              "a6c2c8cee8251");
}

} // namespace
} // namespace rssd::fleet
