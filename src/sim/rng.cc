#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace rssd {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed the 256-bit state from splitmix64 as the xoshiro authors
    // recommend; guarantees a non-zero state for any seed.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    panicIf(bound == 0, "Rng::below(0)");
    // A power of two divides 2^64, so the loop below would never
    // reject and r % bound is this mask of the same single draw.
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    panicIf(lo > hi, "Rng::between: lo > hi");
    return lo + below(hi - lo + 1);
}

double
Rng::uniform()
{
    // 53 top bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    // Inverse CDF; clamp the uniform away from 0 to avoid log(0).
    double u = uniform();
    if (u < 1e-18)
        u = 1e-18;
    return -mean * std::log(u);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double skew)
    : _n(n), _skew(skew)
{
    panicIf(n == 0, "ZipfSampler: n == 0");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; i++) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    // Binary search for the first CDF entry >= u.
    std::uint64_t lo = 0, hi = _n - 1;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace rssd
