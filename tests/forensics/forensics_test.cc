/**
 * @file
 * Cluster-side forensics tests: the acceptance campaigns (16 devices
 * -> 4 shards, fixed seeds) must yield the right patient zero,
 * infection order and campaign class against ground truth; the
 * ForensicsReport must be byte-deterministic (golden digest); and
 * incremental re-analysis must be O(new), asserted via the report's
 * cost counters. Plus recovery-planner policy semantics.
 */

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "fleet/scheduler.hh"
#include "forensics/forensics.hh"

#include "tests/common/json_checker.hh"

namespace rssd::forensics {
namespace {

fleet::FleetConfig
acceptanceFleet(fleet::Scenario scenario, std::uint64_t seed)
{
    // The acceptance configuration: 16 devices -> 4 shards, 40
    // benign ops per device, 16 victim pages (shared shape with the
    // FleetSim golden-digest test).
    fleet::FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.seed = seed;
    cfg.opsPerDevice = 40;
    cfg.campaign.scenario = scenario;
    cfg.campaign.victimPages = 16;
    return cfg;
}

TEST(Forensics, OutbreakFindsPatientZeroAndOrder)
{
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Outbreak, 7));
    sched.run();
    const ForensicsReport rep = sched.runForensics();

    const forensics::GroundTruth truth = sched.groundTruth();
    ASSERT_TRUE(truth.anyInfected);
    EXPECT_TRUE(rep.correlation.anyDetected);
    EXPECT_EQ(rep.correlation.patientZero, truth.patientZero);
    EXPECT_EQ(rep.correlation.infectionOrder, truth.infectionOrder);
    EXPECT_TRUE(rep.patientZeroMatch);
    EXPECT_TRUE(rep.infectionOrderMatch);
    EXPECT_TRUE(rep.campaignClassMatch);
    EXPECT_EQ(rep.correlation.campaignClass, CampaignClass::Outbreak);

    // Every device was infected, detected, and chain-verified.
    EXPECT_EQ(rep.correlation.infectionOrder.size(), 16u);
    for (const DeviceFinding &f : rep.correlation.findings) {
        EXPECT_TRUE(f.chainIntact) << "device " << f.device;
        EXPECT_TRUE(f.finding.detected) << "device " << f.device;
    }

    // The spread graph chains the infection order.
    ASSERT_EQ(rep.correlation.spread.size(), 15u);
    for (std::size_t i = 0; i < rep.correlation.spread.size(); i++) {
        EXPECT_EQ(rep.correlation.spread[i].from,
                  rep.correlation.infectionOrder[i]);
        EXPECT_EQ(rep.correlation.spread[i].to,
                  rep.correlation.infectionOrder[i + 1]);
    }

    // Recovery executed: every victim back to fully intact.
    EXPECT_TRUE(rep.recoveryExecuted);
    ASSERT_EQ(rep.recovery.size(), 16u);
    for (const RecoveryOutcome &r : rep.recovery) {
        EXPECT_EQ(r.unresolved, 0u) << "device " << r.device;
        EXPECT_LT(r.victimIntactBefore, 1.0);
        EXPECT_DOUBLE_EQ(r.victimIntactAfter, 1.0)
            << "device " << r.device;
    }
}

TEST(Forensics, StaggeredReconstructsLateralSpread)
{
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Staggered, 7));
    sched.run();
    const ForensicsReport rep = sched.runForensics();

    const forensics::GroundTruth truth = sched.groundTruth();
    EXPECT_TRUE(rep.patientZeroMatch);
    EXPECT_TRUE(rep.infectionOrderMatch);
    EXPECT_TRUE(rep.campaignClassMatch);
    EXPECT_EQ(rep.correlation.campaignClass,
              CampaignClass::Staggered);
    EXPECT_EQ(rep.correlation.infectionOrder, truth.infectionOrder);

    // Staggered lateral spread: the observed lag between successive
    // infections tracks the campaign's stagger interval.
    fleet::CampaignConfig campaign;
    for (const SpreadEdge &e : rep.correlation.spread) {
        EXPECT_GT(e.lag, campaign.stagger / 2)
            << e.from << "->" << e.to;
        EXPECT_LT(e.lag, campaign.stagger * 2)
            << e.from << "->" << e.to;
    }
}

TEST(Forensics, ShardFloodClassifiedFromEvidence)
{
    fleet::FleetConfig cfg =
        acceptanceFleet(fleet::Scenario::ShardFlood, 7);
    cfg.campaign.floodPages = 512;
    cfg.campaign.floodSpanFraction = 0.02;
    fleet::FleetScheduler sched(cfg);
    sched.run();
    const ForensicsReport rep = sched.runForensics();

    EXPECT_EQ(rep.correlation.campaignClass,
              CampaignClass::ShardFlood);
    EXPECT_TRUE(rep.campaignClassMatch);

    // Exactly the flooder devices carry the flood signature, and
    // they all live on one shard (that is the attack).
    remote::ShardId flood_shard = 0;
    std::size_t flooders = 0;
    for (const DeviceFinding &f : rep.correlation.findings) {
        if (f.floodSuspect) {
            flood_shard = f.shard;
            flooders++;
        }
    }
    ASSERT_GT(flooders, 0u);
    for (const DeviceFinding &f : rep.correlation.findings) {
        if (f.floodSuspect) {
            EXPECT_EQ(f.shard, flood_shard);
        }
    }
}

TEST(Forensics, CapacityBoundedFloodPrunesButVictimsRecover)
{
    // The acceptance scenario for the retention GC: a shard-flood
    // against capacity-bounded, GC-enabled shards. The flood must
    // force real pruning (no permanent CapacityExceeded wall), yet
    // suspicion holds + per-stream quotas keep the victims'
    // pre-attack evidence inside the window: every stream still
    // chain-verifies (pruned ones via their signed re-anchor
    // records) and every encryptor victim recovers to 100% intact.
    fleet::FleetConfig cfg =
        acceptanceFleet(fleet::Scenario::ShardFlood, 7);
    cfg.campaign.floodPages = 512;
    cfg.campaign.floodSpanFraction = 0.02;
    cfg.cluster.shard.capacityBytes = 2 * units::MiB;
    cfg.cluster.shard.retention.gcEnabled = true;
    fleet::FleetScheduler sched(cfg);
    const fleet::FleetReport fleet_rep = sched.run();

    // The flood hit the capacity wall and fought the window instead
    // of stalling on it: segments were pruned, chains re-anchored,
    // and every shard still verifies end to end.
    EXPECT_GT(fleet_rep.totalSegmentsPruned, 0u);
    EXPECT_GT(fleet_rep.totalBytesPruned, 0u);
    EXPECT_TRUE(fleet_rep.allChainsOk);

    // Detector alarms placed eviction holds on flagged streams.
    std::uint64_t held = 0;
    for (const fleet::ShardReport &s : fleet_rep.shardReports)
        held += s.heldStreams;
    EXPECT_GT(held, 0u);

    const ForensicsReport rep = sched.runForensics();
    EXPECT_EQ(rep.totalSegmentsPruned, fleet_rep.totalSegmentsPruned);

    // Forensics walked the pruned streams by resuming from their
    // signed prune records — and every chain held up.
    std::uint64_t reanchors = 0;
    for (const DeviceFinding &f : rep.correlation.findings) {
        EXPECT_TRUE(f.chainIntact) << "device " << f.device;
        reanchors += f.reanchors;
    }
    EXPECT_GT(reanchors, 0u);

    // Every encryptor victim's pre-attack evidence survived the
    // flood: recovery runs to completion, 100% intact.
    std::uint64_t victims = 0;
    for (const RecoveryOutcome &r : rep.recovery) {
        const auto idx = static_cast<std::uint32_t>(r.device);
        if (fleet_rep.deviceReports[idx].role != "encryptor")
            continue;
        victims++;
        EXPECT_FALSE(r.beforePrunedHorizon) << "device " << r.device;
        EXPECT_EQ(r.unresolved, 0u) << "device " << r.device;
        EXPECT_DOUBLE_EQ(r.victimIntactAfter, 1.0)
            << "device " << r.device;
    }
    EXPECT_GT(victims, 0u);
}

TEST(Forensics, BenignFleetRaisesNothing)
{
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Benign, 7));
    sched.run();
    const ForensicsReport rep = sched.runForensics();

    EXPECT_FALSE(rep.correlation.anyDetected);
    EXPECT_EQ(rep.correlation.campaignClass, CampaignClass::Benign);
    EXPECT_TRUE(rep.campaignClassMatch);
    EXPECT_TRUE(rep.patientZeroMatch); // no patient zero, agreed
    EXPECT_TRUE(rep.infectionOrderMatch);
    EXPECT_TRUE(rep.recovery.empty());
    for (const DeviceFinding &f : rep.correlation.findings)
        EXPECT_FALSE(f.finding.detected) << "device " << f.device;
}

TEST(Forensics, ReportIsWellFormedJsonWithSchema)
{
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Outbreak, 11));
    sched.run();
    const std::string json = sched.runForensics().toJson();
    EXPECT_TRUE(test::JsonChecker(json).valid())
        << json.substr(0, 400);
    const std::string expect =
        "{\"schema\":" + std::to_string(kForensicsReportSchema) + ",";
    EXPECT_EQ(json.rfind(expect, 0), 0u) << json.substr(0, 40);
}

TEST(Forensics, SameSeedSameBytes)
{
    const fleet::FleetConfig cfg =
        acceptanceFleet(fleet::Scenario::Outbreak, 7);
    fleet::FleetScheduler a(cfg);
    fleet::FleetScheduler b(cfg);
    a.run();
    b.run();
    EXPECT_EQ(a.runForensics().toJson(), b.runForensics().toJson());
}

TEST(Forensics, GoldenReportDigest)
{
    // The acceptance configuration: 16 devices -> 4 shards,
    // outbreak, seed 7 (the rssd_forensics CLI's smoke run shares
    // scenario/seed). Digest history (every bump must name its
    // schema change):
    //   254f98...b529 — schema 1 (PR 4, initial)
    //   f8b3f4...9b14 — schema 2 (PR 5: retention-GC counters —
    //                   source segmentsPruned/bytesPruned, per-
    //                   finding segmentsPruned/entriesPruned/
    //                   reanchors, per-recovery
    //                   beforePrunedHorizon)
    //   4bd6f8...d3e3 — schema 3 (PR 6: replication — source
    //                   replication/liveShards, per-finding
    //                   replicas/replicasAlive/tailVotes/failovers,
    //                   per-recovery restoredFromShard)
    //   current       — schema 4 (PR 7: anti-entropy — third
    //                   "replica-aware" recovery plan in "plans")
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Outbreak, 7));
    sched.run();
    const std::string json = sched.runForensics().toJson();
    const std::string digest = crypto::toHex(
        crypto::Sha256::hash(json.data(), json.size()));
    EXPECT_EQ(digest,
              "339315dd677e8d277311ee17cc2becf5869c3104533f27dd9bc"
              "1c33154e00036");
}

TEST(Forensics, IncrementalReanalysisIsONew)
{
    // Analysis -> more evidence arrives -> re-analysis. The report's
    // cost counters must show the second pass verified exactly the
    // appended suffix — the O(new) property, pinned here.
    fleet::FleetScheduler sched(
        acceptanceFleet(fleet::Scenario::Outbreak, 7));
    sched.run();
    const ForensicsReport first = sched.runForensics();
    EXPECT_EQ(first.lastPass.segmentsCached, 0u);
    EXPECT_GT(first.lastPass.segmentsVerified, 0u);

    // Recovery execution itself wrote restored pages, which the
    // devices offloaded again: new sealed evidence in the cluster.
    const std::uint64_t at_second_scan =
        sched.cluster().totalSegments();
    ASSERT_GT(at_second_scan, first.lastPass.segmentsVerified);

    const ForensicsReport second = sched.runForensics();
    EXPECT_EQ(second.scanPasses, 2u);
    // O(new): the second pass verified exactly the appended suffix
    // and rode the verified-prefix cache for everything else.
    EXPECT_EQ(second.lastPass.segmentsVerified,
              at_second_scan - first.lastPass.segmentsVerified);
    EXPECT_EQ(second.lastPass.segmentsCached,
              first.lastPass.segmentsVerified);
    EXPECT_EQ(second.totalCost.segmentsVerified, at_second_scan);
}

// ---------------------------------------------------------------------
// Recovery planner policies
// ---------------------------------------------------------------------

std::vector<RestoreJob>
twoShardJobs()
{
    // Shard 0: devices 0 (8 MiB, damage 10), 2 (4 MiB, damage 99).
    // Shard 1: device 1 (16 MiB, damage 5).
    std::vector<RestoreJob> jobs(3);
    jobs[0] = {0, 0, 8 * units::MiB, 10, 100, {}};
    jobs[1] = {1, 1, 16 * units::MiB, 5, 200, {}};
    jobs[2] = {2, 0, 4 * units::MiB, 99, 300, {}};
    return jobs;
}

PlannerConfig
mibPerSec(std::uint64_t mib)
{
    PlannerConfig cfg;
    cfg.shardBandwidthBytesPerSec = mib * units::MiB;
    return cfg;
}

TEST(RecoveryPlanner, GreedySerializesMostDamagedFirstPerShard)
{
    const RestorePlan plan = planRestores(
        twoShardJobs(), PlanPolicy::GreedyMostDamagedFirst,
        mibPerSec(1));
    ASSERT_EQ(plan.restores.size(), 3u);
    // Restores are reported in device order.
    const ScheduledRestore &d0 = plan.restores[0];
    const ScheduledRestore &d1 = plan.restores[1];
    const ScheduledRestore &d2 = plan.restores[2];

    // Shard 0: device 2 (damage 99) first, then device 0.
    EXPECT_EQ(d2.startAt, 0u);
    EXPECT_EQ(d2.finishAt, 4 * units::SEC);
    EXPECT_EQ(d0.startAt, d2.finishAt);
    EXPECT_EQ(d0.finishAt, 12 * units::SEC);
    // Shard 1 runs in parallel.
    EXPECT_EQ(d1.startAt, 0u);
    EXPECT_EQ(d1.finishAt, 16 * units::SEC);

    EXPECT_EQ(plan.makespan, 16 * units::SEC);
    EXPECT_EQ(plan.meanCompletion,
              (4 + 12 + 16) * units::SEC / 3);
}

TEST(RecoveryPlanner, FairShareSplitsBandwidthEqually)
{
    const RestorePlan plan = planRestores(
        twoShardJobs(), PlanPolicy::FairShare, mibPerSec(1));
    ASSERT_EQ(plan.restores.size(), 3u);
    const ScheduledRestore &d0 = plan.restores[0];
    const ScheduledRestore &d1 = plan.restores[1];
    const ScheduledRestore &d2 = plan.restores[2];

    // Shard 0 shares 1 MiB/s between devices 0 and 2: the 4 MiB job
    // finishes at 8 s (half rate), then the remaining 4 MiB of the
    // 8 MiB job runs at full rate: 8 + 4 = 12 s.
    EXPECT_EQ(d2.finishAt, 8 * units::SEC);
    EXPECT_EQ(d0.finishAt, 12 * units::SEC);
    // Everyone starts together under processor sharing.
    EXPECT_EQ(d0.startAt, 0u);
    EXPECT_EQ(d2.startAt, 0u);
    // Shard 1: single job, full bandwidth.
    EXPECT_EQ(d1.finishAt, 16 * units::SEC);

    EXPECT_EQ(plan.makespan, 16 * units::SEC);
}

TEST(RecoveryPlanner, ReplicaAwareSpreadsVictimsAcrossCopies)
{
    // Four victims all pinned to shard 0, but R-way replication left
    // each with a healthy copy on shard 1 too. Per-primary greedy
    // serializes all four on shard 0; the replica-aware policy
    // routes biggest-first to the least-loaded candidate source and
    // cuts the makespan in half — the before/after bandwidth claim.
    std::vector<RestoreJob> jobs(4);
    jobs[0] = {0, 0, 8 * units::MiB, 4, 0, {0, 1}};
    jobs[1] = {1, 0, 6 * units::MiB, 3, 0, {0, 1}};
    jobs[2] = {2, 0, 4 * units::MiB, 2, 0, {0, 1}};
    jobs[3] = {3, 0, 2 * units::MiB, 1, 0, {0, 1}};

    const RestorePlan before = planRestores(
        jobs, PlanPolicy::GreedyMostDamagedFirst, mibPerSec(1));
    EXPECT_EQ(before.makespan, 20 * units::SEC); // serial on shard 0

    const RestorePlan after =
        planRestores(jobs, PlanPolicy::ReplicaAware, mibPerSec(1));
    // 8 -> shard 0, 6 -> shard 1, 4 -> shard 1 (load 6 < 8),
    // 2 -> shard 0: both shards restore 10 MiB in parallel.
    EXPECT_EQ(after.makespan, 10 * units::SEC);
    EXPECT_LT(after.makespan, before.makespan);
    ASSERT_EQ(after.restores.size(), 4u);
    for (const ScheduledRestore &r : after.restores) {
        EXPECT_TRUE(r.shard == 0 || r.shard == 1)
            << "device " << r.device;
    }
    EXPECT_EQ(after.restores[0].shard, 0u);
    EXPECT_EQ(after.restores[1].shard, 1u);
    EXPECT_EQ(after.restores[2].shard, 1u);
    EXPECT_EQ(after.restores[3].shard, 0u);
}

TEST(RecoveryPlanner, ReplicaAwareFallsBackToThePrimary)
{
    // No candidate sources recorded (R=1, or no healthy agreeing
    // peer): the job stays on its primary — the plan degenerates to
    // per-shard greedy.
    const RestorePlan plan = planRestores(
        twoShardJobs(), PlanPolicy::ReplicaAware, mibPerSec(1));
    const RestorePlan greedy = planRestores(
        twoShardJobs(), PlanPolicy::GreedyMostDamagedFirst,
        mibPerSec(1));
    ASSERT_EQ(plan.restores.size(), greedy.restores.size());
    for (std::size_t i = 0; i < plan.restores.size(); i++) {
        EXPECT_EQ(plan.restores[i].shard, greedy.restores[i].shard);
        EXPECT_EQ(plan.restores[i].finishAt,
                  greedy.restores[i].finishAt);
    }
}

TEST(RecoveryPlanner, PoliciesShareMakespanWhenOneJobPerShard)
{
    std::vector<RestoreJob> jobs(2);
    jobs[0] = {0, 0, 10 * units::MiB, 1, 0, {}};
    jobs[1] = {1, 1, 20 * units::MiB, 2, 0, {}};
    const RestorePlan greedy = planRestores(
        jobs, PlanPolicy::GreedyMostDamagedFirst, mibPerSec(10));
    const RestorePlan fair =
        planRestores(jobs, PlanPolicy::FairShare, mibPerSec(10));
    EXPECT_EQ(greedy.makespan, fair.makespan);
    EXPECT_EQ(greedy.meanCompletion, fair.meanCompletion);
}

TEST(RecoveryPlanner, HugeJobsDoNotOverflowTickArithmetic)
{
    // bytes * SEC wraps a uint64 past ~17 GiB; restore jobs are
    // history-sized, so terabytes are legitimate. 1 TiB at
    // 400 MiB/s = 2^20/400 s = 2621.44 s, exactly 2621440000000 ns
    // (a wrapped multiply would land orders of magnitude off).
    std::vector<RestoreJob> jobs(2);
    jobs[0] = {0, 0, units::TiB, 7, 0, {}};
    jobs[1] = {1, 0, units::TiB, 3, 0, {}};
    const Tick one = 2621440000000ull;

    const RestorePlan greedy = planRestores(
        jobs, PlanPolicy::GreedyMostDamagedFirst, mibPerSec(400));
    EXPECT_EQ(greedy.restores[0].finishAt, one);
    EXPECT_EQ(greedy.restores[1].finishAt, 2 * one);
    EXPECT_EQ(greedy.makespan, 2 * one);

    // Fair share: equal sizes share bandwidth, both finish at 2x.
    const RestorePlan fair = planRestores(
        jobs, PlanPolicy::FairShare, mibPerSec(400));
    EXPECT_EQ(fair.restores[0].finishAt, 2 * one);
    EXPECT_EQ(fair.restores[1].finishAt, 2 * one);
}

TEST(RecoveryPlanner, EmptyJobListYieldsEmptyPlan)
{
    const RestorePlan plan = planRestores(
        {}, PlanPolicy::FairShare, mibPerSec(1));
    EXPECT_TRUE(plan.restores.empty());
    EXPECT_EQ(plan.makespan, 0u);
    EXPECT_EQ(plan.meanCompletion, 0u);
}

} // namespace
} // namespace rssd::forensics
