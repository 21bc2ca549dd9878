/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: table
 * printing and common device configurations.
 */

#ifndef RSSD_BENCH_BENCH_COMMON_HH
#define RSSD_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/rssd_config.hh"
#include "crypto/chacha20.hh"
#include "crypto/crc32.hh"
#include "crypto/sha256.hh"
#include "flash/nand.hh"
#include "sim/stats.hh"

namespace rssd::bench {

/**
 * True when RSSD_SMOKE is set in the environment. The ctest smoke
 * suite sets it so every bench runs in a seconds-long configuration;
 * the numbers it prints are then *not* paper-comparable.
 */
inline bool
smoke()
{
    // rssd-lint: allow-next-line(D1) smoke switch scales iteration counts only; results are labeled non-comparable
    static const bool on = std::getenv("RSSD_SMOKE") != nullptr;
    return on;
}

/** Scale an iteration/request count down for smoke runs. */
inline std::uint64_t
smokeScale(std::uint64_t full, std::uint64_t divisor = 10)
{
    if (!smoke())
        return full;
    const std::uint64_t scaled = full / divisor;
    return scaled > 0 ? scaled : 1;
}

/**
 * A parameter sweep that collapses to its first point in smoke runs,
 * so each bench still exercises its full code path once.
 */
template <typename T>
inline std::vector<T>
sweep(std::initializer_list<T> points)
{
    if (smoke() && points.size() > 1)
        return {*points.begin()};
    return std::vector<T>(points);
}

/**
 * Machine-readable bench results. When RSSD_BENCH_JSON=<path> is set
 * in the environment, record() appends one JSON object per line to
 * <path> (JSON-Lines), e.g.:
 *
 *   {"bench":"offload_path",
 *    "meta":{"build":"Release","sha256":"sha-ni","chacha20":"avx2",
 *            "crc32c":"sse4.2","smoke":1},
 *    "config":{"link_gbps":"25","content":"typical"},
 *    "metrics":{"offload_MiBps":812.4,"wire_MiBps":433.1}}
 *
 * so the perf trajectory can be tracked across PRs by diffing or
 * plotting the artifacts. Every record carries a "meta" stamp (build
 * type, the crypto kernels this CPU dispatched to, smoke flag) so CI
 * artifacts are self-describing: a smoke-mode or Debug number can
 * never masquerade as a paper-comparable one. Without the variable
 * every call is a no-op, keeping human-readable output the default.
 */
class JsonReport
{
  public:
    static JsonReport &
    instance()
    {
        static JsonReport r;
        return r;
    }

    bool enabled() const { return file_ != nullptr; }

    void
    record(const std::string &bench,
           const std::vector<std::pair<std::string, std::string>> &config,
           const std::vector<std::pair<std::string, double>> &metrics)
    {
        if (!file_)
            return;
#ifdef RSSD_BUILD_TYPE_NAME
        const char *build_type = RSSD_BUILD_TYPE_NAME;
#else
        const char *build_type = "unknown";
#endif
        std::fprintf(file_,
                     "{\"bench\":\"%s\",\"meta\":{\"build\":\"%s\","
                     "\"sha256\":\"%s\",\"chacha20\":\"%s\","
                     "\"crc32c\":\"%s\",\"smoke\":%d},\"config\":{",
                     escaped(bench).c_str(), escaped(build_type).c_str(),
                     crypto::sha256ImplName(), crypto::chacha20ImplName(),
                     crypto::crc32cImplName(), smoke() ? 1 : 0);
        const char *sep = "";
        for (const auto &[k, v] : config) {
            std::fprintf(file_, "%s\"%s\":\"%s\"", sep,
                         escaped(k).c_str(), escaped(v).c_str());
            sep = ",";
        }
        std::fprintf(file_, "},\"metrics\":{");
        sep = "";
        for (const auto &[k, v] : metrics) {
            std::fprintf(file_, "%s\"%s\":%.17g", sep,
                         escaped(k).c_str(), v);
            sep = ",";
        }
        std::fprintf(file_, "}}\n");
        std::fflush(file_);
    }

  private:
    JsonReport()
    {
        // rssd-lint: allow-next-line(D1) opt-in results file path; absent var keeps record() a no-op
        if (const char *path = std::getenv("RSSD_BENCH_JSON"))
            file_ = std::fopen(path, "a");
    }

    ~JsonReport()
    {
        if (file_)
            std::fclose(file_);
    }

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            if (static_cast<unsigned char>(c) < 0x20)
                continue; // bench names never need control chars
            out.push_back(c);
        }
        return out;
    }

    std::FILE *file_ = nullptr;
};

/** Print a bench banner. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("\n================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    if (smoke())
        std::printf("[RSSD_SMOKE: tiny configuration — numbers are "
                    "not paper-comparable]\n");
    std::printf("==================================================="
                "===========================\n");
}

/** A ~1 GiB device for performance benches. */
inline ftl::FtlConfig
benchFtlConfig(std::uint32_t gib = 1)
{
    ftl::FtlConfig cfg;
    cfg.geometry = flash::benchGeometry(gib);
    cfg.opFraction = 0.07;
    cfg.gcLowWater = 8;
    cfg.gcHighWater = 16;
    return cfg;
}

/** RSSD on the same geometry. */
inline core::RssdConfig
benchRssdConfig(std::uint32_t gib = 1)
{
    core::RssdConfig cfg;
    cfg.ftl = benchFtlConfig(gib);
    cfg.segmentPages = 256;
    cfg.pumpThreshold = 512;
    cfg.remote.capacityBytes = 64ull * units::GiB;
    return cfg;
}

} // namespace rssd::bench

#endif // RSSD_BENCH_BENCH_COMMON_HH
