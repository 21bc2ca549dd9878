/**
 * @file
 * Deterministic random number generation for workloads and attacks.
 *
 * We implement xoshiro256** directly (rather than using <random>
 * engines) so that traces are bit-identical across standard-library
 * implementations — experiment outputs must be reproducible.
 */

#ifndef RSSD_SIM_RNG_HH
#define RSSD_SIM_RNG_HH

#include <cstdint>
#include <vector>

namespace rssd {

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain), seeded via
 * splitmix64. Deterministic across platforms.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Uniform integer in [0, bound) using rejection sampling. A
     * power-of-two bound never rejects, so it is a mask of a single
     * draw. Panics on a zero bound.
     */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /** Exponentially distributed double with mean @p mean. */
    double exponential(double mean);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf-distributed integer sampler over [0, n). Uses the classic
 * inverse-CDF table method: O(n) setup, O(log n) per sample. A skew
 * of 0 degenerates to uniform; ~0.99 matches typical block-trace
 * popularity skew.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     number of distinct items
     * @param skew  Zipf exponent (>= 0)
     */
    ZipfSampler(std::uint64_t n, double skew);

    /** Sample an item index in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    std::uint64_t size() const { return _n; }
    double skew() const { return _skew; }

  private:
    std::uint64_t _n;
    double _skew;
    std::vector<double> cdf_;
};

} // namespace rssd

#endif // RSSD_SIM_RNG_HH
