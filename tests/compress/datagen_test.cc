/**
 * @file
 * DataGenerator tests: compressibility must track the knob, because
 * Figure 2's LocalSSD+Compression series depends on it.
 */

#include <gtest/gtest.h>

#include "compress/datagen.hh"
#include "crypto/entropy.hh"
#include "crypto/sha256.hh"

namespace rssd::compress {
namespace {

double
measuredRatio(double compressibility, std::size_t pages = 32)
{
    DataGenerator gen(42, compressibility);
    std::size_t raw = 0, packed = 0;
    for (std::size_t i = 0; i < pages; i++) {
        const Bytes page = gen.page(4096);
        raw += page.size();
        packed += lzCompress(page).size();
    }
    return compressionRatio(raw, packed);
}

TEST(DataGen, ExactSize)
{
    DataGenerator gen(1, 0.5);
    for (std::size_t size : {1u, 100u, 4096u, 5000u})
        EXPECT_EQ(gen.page(size).size(), size);
}

TEST(DataGen, DeterministicForSeed)
{
    DataGenerator a(7, 0.5), b(7, 0.5);
    EXPECT_EQ(a.page(4096), b.page(4096));
}

TEST(DataGen, DifferentSeedsDiffer)
{
    DataGenerator a(7, 0.5), b(8, 0.5);
    EXPECT_NE(a.page(4096), b.page(4096));
}

TEST(DataGen, RatioIncreasesWithCompressibility)
{
    const double r0 = measuredRatio(0.0);
    const double r5 = measuredRatio(0.5);
    const double r9 = measuredRatio(0.9);
    EXPECT_LT(r0, 1.2);  // random data: no compression
    EXPECT_GT(r5, r0);
    EXPECT_GT(r9, r5);
    EXPECT_GT(r9, 2.0);  // redundant data compresses well
}

TEST(DataGen, EntropyDecreasesWithCompressibility)
{
    DataGenerator lo(3, 0.0), hi(3, 0.95);
    const double e_lo = crypto::shannonEntropy(lo.page(65536));
    const double e_hi = crypto::shannonEntropy(hi.page(65536));
    EXPECT_GT(e_lo, 7.5);
    EXPECT_LT(e_hi, 5.0);
}

TEST(DataGen, GoldenFirstPages)
{
    // The generator's bytes are the workload every benchmark and
    // golden digest rests on. Each page is the first after
    // construction, so the dictionary fill's draws are covered too.
    struct Golden
    {
        double compressibility;
        const char *digest;
    };
    const Golden goldens[] = {
        {0.0,
         "95da2944841ddbdad7835f8eb4a5544ac2798d0092166cd64850f5722d47ecca"},
        {0.55,
         "3982fbbc0f4f5afdffabd7955e530811e979bca750a5d244c8225474c76d55c9"},
        {1.0,
         "7facbb62559bda039bcea555457c3f4f87570e8d860c3b3876d8a50b858a5d63"},
    };
    for (const Golden &g : goldens) {
        DataGenerator gen(2026, g.compressibility);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(gen.page(4096))),
                  g.digest)
            << "compressibility " << g.compressibility;
    }
}

TEST(DataGen, ClampsOutOfRangeKnob)
{
    DataGenerator gen(1, 42.0);
    EXPECT_DOUBLE_EQ(gen.compressibility(), 1.0);
    DataGenerator gen2(1, -1.0);
    EXPECT_DOUBLE_EQ(gen2.compressibility(), 0.0);
}

} // namespace
} // namespace rssd::compress
