/**
 * @file
 * Micro-benchmarks (google-benchmark) of the device-side engines the
 * RSSD controller depends on: SHA-256 (hash chain), HMAC, ChaCha20
 * (segment encryption), CRC32C (capsule checksums), LZ compression
 * (offload path) and entropy estimation (detection).
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "compress/datagen.hh"
#include "compress/lz.hh"
#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/entropy.hh"
#include "crypto/sha256.hh"
#include "log/segment.hh"
#include "sim/rng.hh"

namespace {

using namespace rssd;

std::vector<std::uint8_t>
randomBuffer(std::size_t size)
{
    Rng rng(size);
    std::vector<std::uint8_t> buf(size);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    return buf;
}

void
BM_Sha256(benchmark::State &state)
{
    const auto buf = randomBuffer(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::Sha256::hash(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
    state.SetLabel(crypto::sha256ImplName());
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void
BM_HmacSha256(benchmark::State &state)
{
    const auto buf = randomBuffer(state.range(0));
    const std::uint8_t key[32] = {1, 2, 3};
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmacSha256(
            key, sizeof(key), buf.data(), buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
    state.SetLabel(crypto::sha256ImplName());
}
BENCHMARK(BM_HmacSha256)->Arg(65536);

void
BM_ChaCha20(benchmark::State &state)
{
    auto buf = randomBuffer(state.range(0));
    const auto key = crypto::ChaCha20::deriveKey("bench");
    std::uint64_t nonce = 0;
    for (auto _ : state) {
        crypto::ChaCha20 c(
            key, crypto::ChaCha20::nonceFromSequence(nonce++));
        c.apply(buf);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
    state.SetLabel(crypto::chacha20ImplName());
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(1 << 20);

void
BM_Crc32c(benchmark::State &state)
{
    const auto buf = randomBuffer(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::crc32c(buf));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
    state.SetLabel(crypto::crc32cImplName());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void
BM_LzCompress(benchmark::State &state)
{
    compress::DataGenerator gen(1, state.range(1) / 100.0);
    const auto buf = gen.page(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(compress::lzCompress(buf));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
}
BENCHMARK(BM_LzCompress)
    ->Args({65536, 0})
    ->Args({65536, 55})
    ->Args({65536, 90});

void
BM_DataGenPage(benchmark::State &state)
{
    // One flash page (4 KiB) per iteration, the size every simulated
    // write asks for; arg: compressibility in percent.
    compress::DataGenerator gen(1, state.range(0) / 100.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.page(4096));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_DataGenPage)->Arg(0)->Arg(55)->Arg(90);

void
BM_LzDecompress(benchmark::State &state)
{
    compress::DataGenerator gen(1, 0.55);
    const auto buf = gen.page(65536);
    const auto packed = compress::lzCompress(buf);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compress::lzDecompress(packed, buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
}
BENCHMARK(BM_LzDecompress);

void
BM_Entropy(benchmark::State &state)
{
    // arg1: fraction (percent) of zero bytes — run-heavy content is
    // what the interleaved count sub-tables are for.
    const std::size_t size = state.range(0);
    const double zeros = state.range(1) / 100.0;
    Rng rng(size);
    std::vector<std::uint8_t> buf(size);
    for (auto &b : buf) {
        b = rng.uniform() < zeros
            ? 0
            : static_cast<std::uint8_t>(rng.next());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::shannonEntropy(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
}
BENCHMARK(BM_Entropy)->Args({4096, 0})->Args({65536, 0})->Args({65536, 90});

/** A segment shaped like the offload engine's: log tail + pages. */
log::Segment
benchSegment(std::size_t n_entries, std::size_t n_pages)
{
    log::Segment seg;
    seg.id = 3;
    seg.prevId = 2;
    log::OperationLog lg;
    seg.chainAnchor = lg.anchorDigest();
    for (std::size_t i = 0; i < n_entries; i++) {
        lg.append(i % 4 ? log::OpKind::Write : log::OpKind::Trim, i * 3,
                  i, i ? i - 1 : log::kNoDataSeq, i * 1000,
                  static_cast<float>(i % 8));
    }
    seg.entries.assign(lg.entries().begin(), lg.entries().end());
    seg.chainTail = seg.entries.empty() ? seg.chainAnchor
                                        : seg.entries.back().chain;
    compress::DataGenerator gen(9, 0.55);
    for (std::size_t i = 0; i < n_pages; i++) {
        log::PageRecord p;
        p.lpa = i;
        p.dataSeq = 1000 + i;
        p.writtenAt = i;
        p.invalidatedAt = i + 5;
        p.cause = log::RetainCause::Overwrite;
        p.content = gen.page(4096);
        seg.pages.push_back(std::move(p));
    }
    return seg;
}

void
BM_SegmentSerialize(benchmark::State &state)
{
    // arg0/arg1: entries/pages. The entry-heavy shape exercises the
    // fixed-field writers; the page-heavy shape the bulk content copy.
    const log::Segment seg = benchSegment(state.range(0),
                                          state.range(1));
    const std::size_t bytes = seg.serializedSize();
    for (auto _ : state)
        benchmark::DoNotOptimize(seg.serialize());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_SegmentSerialize)->Args({8192, 0})->Args({256, 64});

void
BM_LzCompressSegment(benchmark::State &state)
{
    // The bytes BM_SegmentSeal compresses: a serialized segment of
    // 256 log entries and 64 retained pages.
    const auto buf = benchSegment(256, 64).serialize();
    for (auto _ : state)
        benchmark::DoNotOptimize(compress::lzCompress(buf));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * buf.size());
}
BENCHMARK(BM_LzCompressSegment);

void
BM_SegmentSeal(benchmark::State &state)
{
    const log::SegmentCodec codec = log::SegmentCodec::fromSeed("bench");
    const log::Segment seg = benchSegment(256, 64);
    const std::size_t bytes = seg.serializedSize();
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.seal(seg));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_SegmentSeal);

/**
 * Console reporter that tees every run into the RSSD_BENCH_JSON
 * JSON-Lines file (no-op when the variable is unset), so bench runs
 * in CI leave a machine-readable artifact.
 */
class JsonTeeReporter : public benchmark::ConsoleReporter
{
  public:
    /** Library-version shim: Run::error_occurred (<= 1.7) became
     *  Run::skipped in Google Benchmark 1.8. */
    template <typename R>
    static bool
    runSkipped(const R &run)
    {
        if constexpr (requires { run.error_occurred; })
            return run.error_occurred;
        else
            return static_cast<int>(run.skipped) != 0;
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (runSkipped(run))
                continue;
            std::vector<std::pair<std::string, double>> metrics = {
                {"real_time_ns", run.GetAdjustedRealTime()},
                {"iterations", static_cast<double>(run.iterations)},
            };
            const auto it = run.counters.find("bytes_per_second");
            if (it != run.counters.end())
                metrics.emplace_back("bytes_per_second",
                                     static_cast<double>(it->second));
            bench::JsonReport::instance().record(
                run.benchmark_name(), {{"bench_binary", "micro_engines"}},
                metrics);
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

// BENCHMARK_MAIN(), plus a near-zero min-time in smoke runs so the
// ctest smoke entry finishes in seconds.
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    char min_time[] = "--benchmark_min_time=0.01";
    if (rssd::bench::smoke())
        args.push_back(min_time);
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    JsonTeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
