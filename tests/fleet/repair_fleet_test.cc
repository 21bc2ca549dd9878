/**
 * @file
 * Fleet-level anti-entropy tests — ISSUE 7's acceptance scenario: a
 * shard crash mid-outbreak plus injected silent bit-rot, with the
 * RepairEngine riding the DES spine. The campaign must end with zero
 * degraded replica sets and zero quarantined copies, the injected rot
 * must be caught by a scrub and healed with no evidence loss per
 * forensics, and the whole run must be deterministic (same seed =>
 * byte-identical report, pinned by a golden digest).
 */

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "fleet/scheduler.hh"

namespace rssd::fleet {
namespace {

std::string
jsonDigest(const FleetReport &report)
{
    const std::string json = report.toJson();
    return crypto::toHex(
        crypto::Sha256::hash(json.data(), json.size()));
}

/** The acceptance campaign: crash mid-outbreak + bit-rot, repair on. */
FleetConfig
healingFleet()
{
    FleetConfig cfg;
    cfg.devices = 16;
    cfg.shards = 4;
    cfg.replication = 3;
    cfg.seed = 7;
    cfg.opsPerDevice = 40;
    cfg.campaign.scenario = Scenario::Outbreak;
    cfg.campaign.victimPages = 16;
    // Mid-outbreak, after offload traffic is flowing: crash while
    // streams hold data (so repair must actually move bytes), then
    // rot a stored copy while the scrubber is mid-campaign.
    cfg.membership.push_back(
        {100 * units::MS, MembershipKind::CrashShard, 1});
    cfg.bitRot.push_back({110 * units::MS, 2, 1, 2});
    cfg.repair.enabled = true;
    cfg.repair.scrubInterval = 10 * units::MS;
    return cfg;
}

TEST(FleetRepair, CrashMidOutbreakHealsToFullStrength)
{
    FleetScheduler sched(healingFleet());
    const FleetReport rep = sched.run();

    // The crash degraded real data and repair paid the debt: every
    // replica set is back at full strength, nothing is quarantined,
    // and the engine converged after the drain.
    EXPECT_TRUE(rep.repairEnabled);
    EXPECT_GT(rep.repairStats.enqueues, 0u);
    EXPECT_GT(rep.repairStats.streamsRepaired, 0u);
    EXPECT_GT(rep.repairStats.segmentsCopied, 0u);
    EXPECT_EQ(rep.degradedAtEnd, 0u);
    EXPECT_EQ(rep.quarantinedAtEnd, 0u);
    EXPECT_GT(rep.repairConvergedAt, rep.makespan);
    EXPECT_TRUE(rep.allChainsOk);

    // The injected bit-rot was caught by a scrub (tail votes agreed,
    // only payload verification could see it) and healed.
    EXPECT_EQ(rep.repairStats.scrubCorruptions, 1u);
    EXPECT_GE(rep.repairStats.quarantines, 1u);
    EXPECT_GT(rep.repairStats.scrubPasses, 0u);

    // Observability: every device reports a full live set and no
    // quarantined copies at the end.
    for (const DeviceReport &d : rep.deviceReports) {
        EXPECT_EQ(d.replicasLive, 3u) << "device " << d.device;
        EXPECT_EQ(d.quarantinedCopies, 0u) << "device " << d.device;
    }

    // No evidence loss: forensics on the healed cluster reconstructs
    // the campaign and every victim restores 100% intact.
    const forensics::ForensicsReport fr = sched.runForensics();
    EXPECT_TRUE(fr.patientZeroMatch);
    EXPECT_TRUE(fr.infectionOrderMatch);
    EXPECT_TRUE(fr.campaignClassMatch);
    ASSERT_GT(fr.recovery.size(), 0u);
    for (const forensics::RecoveryOutcome &o : fr.recovery) {
        EXPECT_DOUBLE_EQ(o.victimIntactAfter, 1.0)
            << "device " << o.device;
        EXPECT_EQ(o.unresolved, 0u) << "device " << o.device;
        EXPECT_NE(o.restoredFromShard, remote::kNoShard);
    }
    // The replica-aware recovery plan is present and no worse than
    // the per-primary greedy plan.
    ASSERT_EQ(fr.plans.size(), 3u);
    EXPECT_EQ(fr.plans[2].policy,
              forensics::PlanPolicy::ReplicaAware);
    EXPECT_LE(fr.plans[2].makespan, fr.plans[0].makespan);
}

TEST(FleetRepair, RepairUnderTrafficIsDeterministic)
{
    // Repair copies contend with foreground quorum writes on the
    // shard ingest queues; the interleaving must still be a pure
    // function of config and seed.
    FleetScheduler a(healingFleet());
    FleetScheduler b(healingFleet());
    EXPECT_EQ(a.run().toJson(), b.run().toJson());
}

TEST(FleetRepair, GoldenHealedReportDigest)
{
    FleetScheduler sched(healingFleet());
    const std::string digest = jsonDigest(sched.run());
    // Digest history (every bump must name its schema change):
    //   30a007...42b0 — schema 5 (PR 7: anti-entropy — "repair"
    //             totals block, per-device replicasLive/
    //             quarantinedCopies, per-shard quarantined)
    //   c2be22...3b3b40 — schema 6 (PR 8: latency attribution —
    //             totals offloadAckP50Ns/offloadAckP99Ns and the
    //             per-stage "latency" block: seal, queueWait,
    //             quorumWait, repairCopy)
    //   current — schema 7 (PR 9: fleet health — per-device
    //             parks/resubmits, top-level "health" block)
    EXPECT_EQ(digest,
              "447458e9b27287e9b1fdfaa61e160d6cc7371b8666d9143e4fd"
              "b1aa182d3a576");
}

TEST(FleetRepair, SameTickMembershipAppliesBeforeBitRot)
{
    // Rot replica 2 of device 2 at the very tick shard 1 crashes.
    // Membership events sort before bit-rot at one tick, so the crash
    // re-picks the live holders first and the rot lands on a copy
    // that survives it: the scrub must catch exactly one corruption.
    // One tick earlier the rot hits shard 1's copy and dies with the
    // crash — the control that makes the same-tick count meaningful.
    const auto scrubCorruptionsWithRotAt = [](Tick at) {
        FleetConfig cfg = healingFleet();
        cfg.bitRot = {{at, 2, 2, 2}};
        FleetScheduler sched(cfg);
        const FleetReport rep = sched.run();
        EXPECT_TRUE(rep.allChainsOk) << "rot at " << at;
        return rep.repairStats.scrubCorruptions;
    };
    EXPECT_EQ(scrubCorruptionsWithRotAt(100 * units::MS), 1u);
    EXPECT_EQ(scrubCorruptionsWithRotAt(100 * units::MS - 1), 0u);
}

TEST(FleetRepair, FaultsListedOutOfTimeOrderRunInTimeOrder)
{
    // The spine applies scripted faults by tick, whatever order the
    // config lists them in: a join at 100 ms, rot at 105 ms and a
    // crash at 110 ms give the same bytes listed either way.
    FleetConfig listed = healingFleet();
    listed.membership = {
        {110 * units::MS, MembershipKind::CrashShard, 1},
        {100 * units::MS, MembershipKind::JoinShard, 0}};
    listed.bitRot = {{105 * units::MS, 2, 1, 2}};
    FleetConfig sorted = listed;
    std::swap(sorted.membership[0], sorted.membership[1]);

    FleetScheduler a(listed);
    FleetScheduler b(sorted);
    const FleetReport rep = a.run();
    EXPECT_EQ(rep.toJson(), b.run().toJson());
    EXPECT_EQ(rep.shards, 5u);
    EXPECT_EQ(rep.shardReports[1].status, "crashed");
    EXPECT_EQ(rep.repairStats.scrubCorruptions, 1u);
}

TEST(FleetRepair, RetentionGcLeavesRotForTheScrubToHeal)
{
    // Retention GC on every replica, rot on one copy of device 0's
    // stream: the GC reaches the rotten segment before the scrub
    // does. A prune opens what it expires, so it must pass over
    // bytes that do not authenticate (no abort, no prune record
    // signed over them) and leave the copy for the scrub to
    // quarantine and the repair to rebuild. Both GC triggers: age
    // expiry and capacity pressure. Pressure first reaches the rotten
    // segment after 200 ms, so that run scrubs every 250 ms.
    const auto run = [](std::uint64_t capacity, Tick window,
                        Tick scrub) {
        FleetConfig cfg;
        cfg.devices = 4;
        cfg.shards = 3;
        cfg.replication = 3;
        cfg.seed = 7;
        cfg.campaign.scenario = Scenario::Benign;
        if (capacity > 0)
            cfg.cluster.shard.capacityBytes = capacity;
        cfg.cluster.shard.retention.gcEnabled = true;
        cfg.cluster.shard.retention.retentionWindow = window;
        cfg.bitRot.push_back({100 * units::MS, 0, 1, 2});
        cfg.repair.enabled = true;
        cfg.repair.scrubInterval = scrub;
        FleetScheduler sched(cfg);
        return sched.run();
    };
    for (const FleetReport &rep :
         {run(0, 50 * units::MS, 200 * units::MS),
          run(1 * units::MiB, 0, 250 * units::MS)}) {
        EXPECT_GT(rep.totalSegmentsPruned, 0u);
        EXPECT_TRUE(rep.allChainsOk);
        EXPECT_EQ(rep.repairStats.scrubCorruptions, 1u);
        EXPECT_EQ(rep.degradedAtEnd, 0u);
        EXPECT_EQ(rep.quarantinedAtEnd, 0u);
    }
}

TEST(FleetRepair, RepairDisabledLeavesTheDebt)
{
    // Without the engine the same campaign ends degraded — the PR 6
    // status quo this PR exists to fix (and the control run for the
    // convergence claim).
    FleetConfig cfg = healingFleet();
    cfg.repair.enabled = false;
    cfg.bitRot.clear();
    FleetScheduler sched(cfg);
    const FleetReport rep = sched.run();
    EXPECT_FALSE(rep.repairEnabled);
    EXPECT_EQ(rep.repairStats.segmentsCopied, 0u);
    EXPECT_GT(rep.degradedAtEnd, 0u);
    EXPECT_EQ(rep.repairConvergedAt, 0u);
}

} // namespace
} // namespace rssd::fleet
