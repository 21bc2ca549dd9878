/**
 * @file
 * Tests for the deterministic RNG and the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/rng.hh"

namespace rssd {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    // A broken xoshiro seeded all-zero would return 0 forever.
    bool nonzero = false;
    for (int i = 0; i < 16; i++)
        nonzero |= r.next() != 0;
    EXPECT_TRUE(nonzero);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; i++)
            EXPECT_LT(r.below(bound), bound);
    }
}

/** Rng::below without its power-of-two path: rejection sampling. */
std::uint64_t
referenceBelow(Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, BelowMatchesRejectionReference)
{
    // Twin generators: every result must agree, and both must consume
    // the same number of draws (checked by their next raw value).
    std::vector<std::uint64_t> bounds;
    for (int k = 0; k < 64; k++)
        bounds.push_back(1ull << k);
    for (std::uint64_t b : {3ull, 10ull, 48ull, 1000ull, (1ull << 63) + 1})
        bounds.push_back(b);
    for (const std::uint64_t bound : bounds) {
        Rng fast(bound), ref(bound);
        for (int i = 0; i < 10000; i++) {
            ASSERT_EQ(fast.below(bound), referenceBelow(ref, bound))
                << "bound " << bound << ", draw " << i;
        }
        ASSERT_EQ(fast.next(), ref.next()) << "bound " << bound;
    }
}

TEST(RngDeathTest, BelowZeroPanics)
{
    Rng r(5);
    EXPECT_DEATH(r.below(0), "below\\(0\\)");
}

TEST(Rng, BetweenInclusive)
{
    Rng r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; i++) {
        const std::uint64_t v = r.between(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        hit_lo |= v == 5;
        hit_hi |= v == 8;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; i++)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(19);
    double sum = 0;
    for (int i = 0; i < 50000; i++)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / 50000.0, 5.0, 0.2);
}

TEST(Zipf, UniformWhenSkewZero)
{
    Rng r(23);
    ZipfSampler z(10, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; i++)
        counts[z.sample(r)]++;
    for (const auto &[k, c] : counts) {
        EXPECT_LT(k, 10u);
        EXPECT_NEAR(c / 50000.0, 0.1, 0.02);
    }
}

TEST(Zipf, SkewConcentratesOnHead)
{
    Rng r(29);
    ZipfSampler z(1000, 1.0);
    int head = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        head += z.sample(r) < 10;
    // With skew 1.0 over 1000 items, the top-10 get ~39% of mass.
    EXPECT_GT(head, n / 4);
}

TEST(Zipf, SingleItem)
{
    Rng r(31);
    ZipfSampler z(1, 0.99);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(z.sample(r), 0u);
}

class ZipfRangeTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfRangeTest, SamplesAlwaysInRange)
{
    Rng r(37);
    ZipfSampler z(77, GetParam());
    for (int i = 0; i < 5000; i++)
        EXPECT_LT(z.sample(r), 77u);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfRangeTest,
                         ::testing::Values(0.0, 0.5, 0.9, 0.99, 1.2,
                                           2.0));

} // namespace
} // namespace rssd
