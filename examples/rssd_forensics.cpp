/**
 * @file
 * rssd_forensics: run a fleet campaign, then run the cluster-side
 * forensics pipeline where the evidence lives — verify every stream's
 * chain, identify the compromised devices and patient zero,
 * reconstruct the spread, classify the campaign, plan and execute
 * recovery — and emit the deterministic ForensicsReport.
 *
 *   build/examples/rssd_forensics --devices 16 --shards 4 \
 *       --scenario outbreak --seed 7 [--ops 400] [--json report.json] \
 *       [--check]
 *
 * --check makes the exit code assert the forensics conclusions
 * against the campaign ground truth (patient zero, infection order,
 * campaign class) — the acceptance.forensics ctest gate runs with it.
 *
 * Observability knobs:
 *   --trace-out PATH    Chrome trace_event JSON of the campaign run
 *                       (chrome://tracing / Perfetto; sim-tick
 *                       timestamps, 1 trace-us = 1 sim-ns)
 *   --metrics-out PATH  metrics snapshot (fleet instruments plus the
 *                       evidence scanner's scan-cost counters under
 *                       "forensics."), sampled after the analysis
 *
 * Health & SLO knobs (see rssd_fleet for details):
 *   --health-interval-ms N  periodic time-series sampling + SLO rule
 *                           evaluation on the DES spine (0 disables;
 *                           defaults to 1 under --health-out or
 *                           --health-check)
 *   --health-out PATH       write the time-series telemetry JSONL
 *   --health-check          exit non-zero if any SLO alert is still
 *                           open when the campaign ends
 *
 * Determinism: the same flags (and RSSD_SMOKE setting) produce a
 * byte-identical report; the acceptance gate byte-compares two runs.
 * The trace and metrics files are byte-identical too.
 *
 * RSSD_SMOKE=1 divides the per-device benign op count and the
 * shard-flood volume by 10 so the ctest acceptance gates finish in
 * seconds.
 */

#include <cstdio>

#include "examples/fleet_cli.hh"
#include "sim/stats.hh"

using namespace rssd;

namespace {

const char *kUsage =
    "rssd_forensics [--devices N] [--shards M] [--scenario "
    "benign|outbreak|staggered|shard-flood] [--seed S] [--ops N] "
    "[--json PATH] [--check] [--trace-out PATH] "
    "[--metrics-out PATH] [--health-interval-ms N] "
    "[--health-out PATH] [--health-check]";

} // namespace

int
main(int argc, char **argv)
{
    examples::ArgParser args(argc, argv);
    examples::FleetCli cli(args);
    const bool check = args.flag("--check");
    cli.finish(args, kUsage);
    const fleet::FleetConfig &cfg = cli.config;

    std::printf("rssd_forensics: campaign \"%s\" over %u devices -> "
                "%u shards, seed %llu%s\n",
                fleet::scenarioName(cfg.campaign.scenario),
                cfg.devices, cfg.shards,
                static_cast<unsigned long long>(cfg.seed),
                cli.smoke ? " [RSSD_SMOKE]" : "");

    fleet::FleetScheduler sched(cfg);
    cli.attach(sched);
    const fleet::FleetReport fleet_report = sched.run();
    const forensics::ForensicsReport report = sched.runForensics();

    // The scanner exists only after runForensics(); registering here
    // still precedes the snapshot (closures sample at write time).
    if (!cli.metricsPath.empty() && sched.evidenceScanner() != nullptr) {
        sched.evidenceScanner()->registerMetrics(cli.registry,
                                                 "forensics.");
    }

    std::printf("\nevidence: %llu segments (%s) across %llu shards; "
                "scan verified %llu segments / %llu entries (%s)\n",
                static_cast<unsigned long long>(report.totalSegments),
                formatBytes(report.totalBytesStored).c_str(),
                static_cast<unsigned long long>(report.shards),
                static_cast<unsigned long long>(
                    report.lastPass.segmentsVerified),
                static_cast<unsigned long long>(
                    report.lastPass.entriesReplayed),
                formatBytes(report.lastPass.bytesVerified).c_str());

    std::printf("\n%-7s %-6s %-6s %9s %12s %11s %6s\n", "device",
                "shard", "chain", "detected", "implicated",
                "recoverySeq", "flood");
    for (const forensics::DeviceFinding &f :
         report.correlation.findings) {
        std::printf("%-7llu %-6u %-6s %9s %12llu %11llu %6s\n",
                    static_cast<unsigned long long>(f.device),
                    f.shard, f.chainIntact ? "ok" : "BROKEN",
                    f.finding.detected ? "yes" : "no",
                    static_cast<unsigned long long>(
                        f.finding.implicatedOps),
                    static_cast<unsigned long long>(
                        f.finding.recommendedRecoverySeq),
                    f.floodSuspect ? "yes" : "no");
    }

    const forensics::Correlation &c = report.correlation;
    std::printf("\ncampaign classified: %s (truth: %s)\n",
                forensics::campaignClassName(c.campaignClass),
                report.truth.scenario.c_str());
    if (c.anyDetected) {
        std::printf("patient zero: device %llu (truth: %llu) — %s\n",
                    static_cast<unsigned long long>(c.patientZero),
                    static_cast<unsigned long long>(
                        report.truth.patientZero),
                    report.patientZeroMatch ? "match" : "MISMATCH");
        std::printf("infection order:");
        for (const forensics::DeviceId d : c.infectionOrder)
            std::printf(" %llu", static_cast<unsigned long long>(d));
        std::printf(" — %s\n", report.infectionOrderMatch
                                   ? "match"
                                   : "MISMATCH");
    }

    for (const forensics::RestorePlan &p : report.plans) {
        std::printf("plan %-26s makespan %-10s mean completion %s\n",
                    forensics::planPolicyName(p.policy),
                    formatTime(p.makespan).c_str(),
                    formatTime(p.meanCompletion).c_str());
    }

    std::uint64_t restored = 0;
    double worst_after = 1.0;
    for (const forensics::RecoveryOutcome &r : report.recovery) {
        restored += r.pagesRestored;
        worst_after = std::min(worst_after, r.victimIntactAfter);
    }
    std::printf("recovery executed: %zu devices, %llu pages "
                "restored, worst victim intact after: %.0f%%\n",
                report.recovery.size(),
                static_cast<unsigned long long>(restored),
                worst_after * 100);

    if (fleet_report.health.enabled) {
        std::printf("health: %llu samples, %llu alerts raised "
                    "(%llu open), worst severity %s\n",
                    static_cast<unsigned long long>(
                        fleet_report.health.samples),
                    static_cast<unsigned long long>(
                        fleet_report.health.alertsRaised),
                    static_cast<unsigned long long>(
                        fleet_report.health.alertsOpen),
                    fleet_report.health.worstSeverity.c_str());
    }
    const bool health_ok = cli.healthVerdict(fleet_report);
    cli.writeOutputs(sched, report, "ForensicsReport");

    if (check) {
        const bool ok = report.patientZeroMatch &&
                        report.infectionOrderMatch &&
                        report.campaignClassMatch;
        if (!ok)
            std::printf("--check FAILED: forensics conclusions "
                        "disagree with campaign ground truth\n");
        return ok && health_ok ? 0 : 1;
    }
    return health_ok ? 0 : 1;
}
