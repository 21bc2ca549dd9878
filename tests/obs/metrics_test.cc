/**
 * @file
 * Tests for the sampled MetricsRegistry: registration-order emission,
 * live-state sampling at snapshot time, histogram rendering,
 * duplicate-name rejection, snapshot determinism, and the fleet-level
 * instrument surface a FleetScheduler registers.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "fleet/scheduler.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"

#include "tests/common/json_checker.hh"

namespace rssd::obs {
namespace {

using test::JsonChecker;

TEST(MetricsRegistry, EmitsInRegistrationOrder)
{
    MetricsRegistry r;
    r.counter("zulu", [] { return std::uint64_t{1}; });
    r.counter("alpha", [] { return std::uint64_t{2}; });
    r.gauge("mike", [] { return 0.5; });
    EXPECT_EQ(r.size(), 3u);

    const std::string json = r.snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // Registration order, not lexical order.
    const std::size_t z = json.find("\"zulu\"");
    const std::size_t a = json.find("\"alpha\"");
    const std::size_t m = json.find("\"mike\"");
    ASSERT_NE(z, std::string::npos);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    EXPECT_LT(z, a);
    EXPECT_LT(a, m);
    EXPECT_EQ(json.rfind("{\"schema\":1,\"metrics\":{", 0), 0u);
}

TEST(MetricsRegistry, SamplesLiveStateAtSnapshotTime)
{
    std::uint64_t ops = 0;
    MetricsRegistry r;
    r.counter("ops", [&ops] { return ops; });

    EXPECT_NE(r.snapshotJson().find("\"ops\":0"), std::string::npos);
    ops = 41;
    ops++;
    EXPECT_NE(r.snapshotJson().find("\"ops\":42"), std::string::npos);
}

TEST(MetricsRegistry, HistogramRendersSummaryFields)
{
    LatencyHistogram h;
    h.add(100);
    h.add(200);
    h.add(1000000);
    MetricsRegistry r;
    r.histogram("lat", [&h] { return h; });

    const std::string json = r.snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"lat\":{"), std::string::npos);
    EXPECT_NE(json.find("\"count\":3"), std::string::npos);
    EXPECT_NE(json.find("\"maxNs\":1000000"), std::string::npos);
    for (const char *key : {"\"meanNs\":", "\"p50Ns\":", "\"p99Ns\":"})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(MetricsRegistry, SnapshotsAreDeterministic)
{
    // The same registrations against the same state must render the
    // same bytes — the acceptance.trace gate byte-compares metrics
    // files.
    auto build = [](MetricsRegistry &r) {
        r.counter("a.ops", [] { return std::uint64_t{7}; });
        r.gauge("a.fill", [] { return 0.25; });
        LatencyHistogram h;
        h.add(500);
        r.histogram("a.lat", [h] { return h; });
    };
    MetricsRegistry r1, r2;
    build(r1);
    build(r2);
    EXPECT_EQ(r1.snapshotJson(), r2.snapshotJson());
}

TEST(MetricsRegistry, DuplicateOrEmptyNamesPanic)
{
    MetricsRegistry r;
    r.counter("dup", [] { return std::uint64_t{0}; });
    EXPECT_DEATH(r.counter("dup", [] { return std::uint64_t{1}; }),
                 "duplicate");
    EXPECT_DEATH(r.gauge("dup", [] { return 1.0; }), "duplicate");
    EXPECT_DEATH(r.counter("", [] { return std::uint64_t{0}; }),
                 "empty");
    // The panic names the offending instrument — a duplicate in a
    // 200-instrument fleet registry must be findable from the
    // message alone.
    EXPECT_DEATH(r.level("dup", [] { return std::uint64_t{2}; }),
                 "\"dup\"");
}

TEST(MetricsRegistry, DoublesRenderViaThePinnedFormat)
{
    // The documented determinism contract: gauges and histogram
    // means render via %.17g — 17 significant digits round-trip
    // every IEEE-754 double, so identical samples give identical
    // bytes. 0.1 is the canonical non-representable value.
    MetricsRegistry r;
    r.gauge("fill", [] { return 0.1; });
    r.gauge("third", [] { return 1.0 / 3.0; });
    r.gauge("whole", [] { return 2.0; });
    const std::string json = r.snapshotJson();
    EXPECT_NE(json.find("\"fill\":0.10000000000000001"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"third\":0.33333333333333331"),
              std::string::npos)
        << json;
    // %g drops trailing zeros: exact values stay compact.
    EXPECT_NE(json.find("\"whole\":2"), std::string::npos) << json;
}

TEST(MetricsRegistry, IntrospectionSurfaceForTheHealthLayer)
{
    // nameAt/kindAt/indexOf/sampleInto feed the TimeSeriesSampler
    // and HealthMonitor without JSON parsing.
    std::uint64_t depth = 4;
    MetricsRegistry r;
    r.counter("ops", [] { return std::uint64_t{9}; });
    r.level("depth", [&depth] { return depth; });
    r.gauge("fill", [] { return 0.5; });

    EXPECT_EQ(r.indexOf("ops"), 0u);
    EXPECT_EQ(r.indexOf("depth"), 1u);
    EXPECT_EQ(r.indexOf("missing"), MetricsRegistry::npos);
    EXPECT_EQ(r.nameAt(1), "depth");
    EXPECT_EQ(r.kindAt(0), InstrumentKind::Counter);
    EXPECT_EQ(r.kindAt(1), InstrumentKind::Level);
    EXPECT_EQ(r.kindAt(2), InstrumentKind::Gauge);

    std::vector<MetricSample> out;
    r.sampleInto(out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].u64, 9u);
    EXPECT_EQ(out[1].u64, 4u);
    EXPECT_DOUBLE_EQ(out[2].f64, 0.5);
    // Levels are point-in-time: a later sample sees the new value.
    depth = 1;
    r.sampleInto(out);
    EXPECT_EQ(out[1].u64, 1u);
}

TEST(MetricsRegistry, FleetRegistersTheInstrumentSurface)
{
    fleet::FleetConfig cfg;
    cfg.devices = 4;
    cfg.shards = 2;
    cfg.replication = 2;
    cfg.seed = 7;
    cfg.opsPerDevice = 20;
    cfg.campaign.scenario = fleet::Scenario::Outbreak;
    cfg.campaign.victimPages = 8;
    cfg.repair.enabled = true;

    fleet::FleetScheduler sched(cfg);
    MetricsRegistry r;
    sched.registerMetrics(r);
    EXPECT_GT(r.size(), 0u);
    sched.run();

    const std::string json = r.snapshotJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    for (const char *key :
         {"\"device.0.offload.segmentsSealed\"",
          "\"device.0.offload.sealLatency\"",
          "\"cluster.quorumWrites\"",
          "\"cluster.shard.0.segmentsAccepted\"",
          "\"repair.segmentsCopied\"", "\"repair.copyLatency\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }

    // Snapshot determinism end to end: a second identical run's
    // snapshot is byte-identical.
    fleet::FleetScheduler sched2(cfg);
    MetricsRegistry r2;
    sched2.registerMetrics(r2);
    sched2.run();
    EXPECT_EQ(json, r2.snapshotJson());
}

} // namespace
} // namespace rssd::obs
