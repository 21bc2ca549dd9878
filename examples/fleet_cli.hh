/**
 * @file
 * The flags rssd_fleet and rssd_forensics share, parsed in one place:
 * the campaign shape (--devices --shards --seed --ops --scenario), the
 * output files (--json --trace-out --metrics-out --health-out) and the
 * health layer (--health-interval-ms --health-check), plus the
 * RSSD_SMOKE scaling. Each CLI parses its own flags between the
 * constructor and finish(), and keeps its own tables and --*-check
 * blocks.
 */

#ifndef RSSD_EXAMPLES_FLEET_CLI_HH
#define RSSD_EXAMPLES_FLEET_CLI_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "examples/argparse.hh"
#include "fleet/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace rssd::examples {

struct FleetCli
{
    /** Parse the campaign shape; the CLI's own flags come next. */
    explicit FleetCli(ArgParser &args)
    {
        config.devices =
            static_cast<std::uint32_t>(args.u64("--devices", 16));
        config.shards =
            static_cast<std::uint32_t>(args.u64("--shards", 4));
        config.seed = args.u64("--seed", 7);
        config.opsPerDevice = args.u64("--ops", 400);
        config.campaign.scenario =
            fleet::scenarioByName(args.str("--scenario", "outbreak"));
    }

    /**
     * Parse the output and health flags, reject any leftover
     * argument, and apply RSSD_SMOKE: a tenth of the benign ops and
     * of the shard-flood volume, so the acceptance gates finish in
     * seconds.
     */
    void
    finish(ArgParser &args, const char *usage)
    {
        jsonPath = args.str("--json", "");
        tracePath = args.str("--trace-out", "");
        metricsPath = args.str("--metrics-out", "");
        std::uint64_t health_ms = args.u64("--health-interval-ms", 0);
        healthPath = args.str("--health-out", "");
        healthCheck = args.flag("--health-check");
        args.finish(usage);

        if (health_ms == 0 && (!healthPath.empty() || healthCheck))
            health_ms = 1;
        config.health.interval = health_ms * units::MS;

        if (smoke) {
            config.opsPerDevice =
                std::max<std::uint64_t>(1, config.opsPerDevice / 10);
            config.campaign.floodPages = std::max<std::uint64_t>(
                1, config.campaign.floodPages / 10);
            // Shrink the flood *span* with the flood volume: the
            // attack signature (junk overwriting junk) needs the
            // flood to wrap its span — scale the shape, not break it.
            config.campaign.floodSpanFraction /= 10.0;
        }
    }

    /** Attach the trace sink and metrics registry the flags ask for. */
    void
    attach(fleet::FleetScheduler &sched)
    {
        if (!tracePath.empty())
            sched.attachTrace(&trace);
        if (!metricsPath.empty())
            sched.registerMetrics(registry);
    }

    /**
     * The SLO gate under --health-check: alerts that raised and
     * cleared pass, an alert still open at end of run fails. Prints
     * the verdict; true when it passed or was not asked for.
     */
    bool
    healthVerdict(const fleet::FleetReport &report) const
    {
        if (!healthCheck)
            return true;
        if (report.health.alertsOpen != 0) {
            std::printf("health-check: FAIL (%llu alerts still open "
                        "at end of run)\n",
                        static_cast<unsigned long long>(
                            report.health.alertsOpen));
            return false;
        }
        std::printf("health-check: OK (%llu alerts raised, all "
                    "cleared)\n",
                    static_cast<unsigned long long>(
                        report.health.alertsRaised));
        return true;
    }

    /** Write every requested file; @p report (a FleetReport or a
     *  ForensicsReport, named @p what) goes to --json. */
    template <typename Report>
    void
    writeOutputs(const fleet::FleetScheduler &sched, const Report &report,
                 const char *what) const
    {
        if (!jsonPath.empty())
            write(jsonPath, report.toJson(), what);
        if (!tracePath.empty())
            write(tracePath, trace.toChromeJson(), "trace");
        if (!metricsPath.empty())
            write(metricsPath, registry.snapshotJson(), "metrics");
        if (!healthPath.empty()) {
            write(healthPath, sched.healthTimeSeriesJsonl(),
                  "health time series");
        }
    }

    fleet::FleetConfig config;
    // rssd-lint: allow-next-line(D1) smoke switch shrinks the campaign; every run at a given size/seed stays byte-identical
    const bool smoke = std::getenv("RSSD_SMOKE") != nullptr;
    std::string jsonPath, tracePath, metricsPath, healthPath;
    bool healthCheck = false;
    obs::TraceSink trace;
    obs::MetricsRegistry registry;

  private:
    static void
    write(const std::string &path, const std::string &text,
          const char *what)
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            fatal("cannot open " + path);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("%s written to %s\n", what, path.c_str());
    }
};

} // namespace rssd::examples

#endif // RSSD_EXAMPLES_FLEET_CLI_HH
