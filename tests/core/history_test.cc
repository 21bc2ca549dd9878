/**
 * @file
 * DeviceHistory tests: the merged local+remote view that recovery
 * and analysis operate on, plus selective range recovery.
 */

#include <gtest/gtest.h>

#include "attack/ransomware.hh"
#include "core/history.hh"
#include "core/recovery.hh"
#include "core/rssd_device.hh"

namespace rssd::core {
namespace {

class HistoryTest : public ::testing::Test
{
  protected:
    HistoryTest() : dev_(config(), clock_) {}

    static RssdConfig
    config()
    {
        RssdConfig cfg = RssdConfig::forTests();
        cfg.segmentPages = 8;
        cfg.pumpThreshold = 8;
        return cfg;
    }

    std::vector<std::uint8_t>
    page(std::uint8_t fill)
    {
        return std::vector<std::uint8_t>(dev_.pageSize(), fill);
    }

    VirtualClock clock_;
    RssdDevice dev_;
};

TEST_F(HistoryTest, MergesRemoteAndLocalEntriesInOrder)
{
    for (int i = 0; i < 40; i++)
        dev_.writePage(i % 4, page(static_cast<std::uint8_t>(i)));
    // Some entries shipped, some still local.
    ASSERT_GT(dev_.backupStore().segmentCount(), 0u);
    ASSERT_GT(dev_.opLog().size(), 0u);

    DeviceHistory history(dev_);
    ASSERT_EQ(history.entries().size(), 40u);
    for (std::uint32_t i = 0; i < 40; i++)
        EXPECT_EQ(history.entries()[i].logSeq, i);
}

TEST_F(HistoryTest, VersionSourcesAreClassified)
{
    dev_.writePage(0, page(0x01)); // will be shipped remote
    for (int i = 0; i < 20; i++)
        dev_.writePage(0, page(static_cast<std::uint8_t>(0x10 + i)));
    // Last overwrite is probably still held locally; the current
    // version is live.
    DeviceHistory history(dev_);

    std::size_t live = 0, held = 0, remote = 0;
    for (const log::LogEntry &e : history.entries()) {
        const VersionRecord *v = history.findVersion(e.dataSeq);
        ASSERT_NE(v, nullptr);
        switch (v->source) {
          case VersionSource::LiveOnDevice: live++; break;
          case VersionSource::HeldOnDevice: held++; break;
          case VersionSource::RemoteSegment: remote++; break;
        }
    }
    EXPECT_EQ(live, 1u);
    EXPECT_GT(remote, 0u);
    EXPECT_EQ(live + held + remote, 21u);
}

TEST_F(HistoryTest, ContentReadableFromEverySource)
{
    dev_.writePage(5, page(0xA1));
    for (int i = 0; i < 20; i++)
        dev_.writePage(5, page(static_cast<std::uint8_t>(i)));

    DeviceHistory history(dev_);
    // Version 0 (0xA1) went remote; verify content through the
    // history regardless of where it lives.
    const log::LogEntry &first = history.entries()[0];
    const VersionRecord *v = history.findVersion(first.dataSeq);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(history.contentOf(*v), page(0xA1));
}

TEST_F(HistoryTest, EntropyLookupByVersion)
{
    dev_.writePage(1, page(0x00)); // entropy 0
    DeviceHistory history(dev_);
    const log::LogEntry &e = history.entries()[0];
    EXPECT_FLOAT_EQ(history.entropyOf(e.dataSeq), 0.0f);
    EXPECT_EQ(history.entropyOf(9999), detect::kNoEntropy);
}

TEST_F(HistoryTest, CostAccountsFetchTraffic)
{
    for (int i = 0; i < 64; i++)
        dev_.writePage(i % 4, page(1));
    dev_.drainOffload();

    const Tick before = clock_.now();
    DeviceHistory history(dev_);
    EXPECT_GT(history.cost().segmentsFetched, 0u);
    EXPECT_GT(history.cost().bytesFetched, 0u);
    EXPECT_GT(clock_.now(), before); // fetch consumed link time
}

TEST_F(HistoryTest, BuildWarmsTheStoreRecord)
{
    // The history reads the store through its one reader, which
    // extends the stream's verified-prefix record as it goes: the
    // evidence-chain check afterwards walks nothing again.
    for (int i = 0; i < 64; i++)
        dev_.writePage(i % 4, page(1));
    dev_.drainOffload();
    const remote::BackupStore &store = dev_.backupStore();
    const std::size_t stored =
        store.streamSegments(remote::kDefaultStream).size();
    ASSERT_GT(stored, 0u);

    DeviceHistory history(dev_);
    EXPECT_EQ(store.verifiedPrefix(remote::kDefaultStream), stored);
    const std::uint64_t walked = store.stats().segmentsChainWalked;
    EXPECT_TRUE(history.verifyEvidenceChain());
    EXPECT_EQ(store.stats().segmentsChainWalked, walked);
}

TEST_F(HistoryTest, RottenStoredCopyIsNoHistory)
{
    for (int i = 0; i < 64; i++)
        dev_.writePage(i % 4, page(1));
    dev_.drainOffload();
    dev_.backupStore().injectBitRot(remote::kDefaultStream, 1, 0, 1);
    EXPECT_DEATH(DeviceHistory{dev_}, "does not verify");
}

TEST_F(HistoryTest, RangeRecoveryLeavesOutOfScopeAlone)
{
    attack::VictimDataset docs(0, 32);
    attack::VictimDataset media(100, 32);
    docs.populate(dev_);
    media.populate(dev_);
    const std::uint64_t pre_attack = dev_.opLog().totalAppended();

    attack::ClassicRansomware attack;
    attack.run(dev_, clock_, docs);  // only "docs" is hit
    attack.run(dev_, clock_, media); // ...then "media" too

    // Selectively restore just the docs range.
    dev_.drainOffload();
    DeviceHistory history(dev_);
    RecoveryEngine engine(history);
    const RecoveryReport r = engine.recoverRange(0, 32, pre_attack);

    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.pagesRestored, 32u);
    EXPECT_DOUBLE_EQ(docs.intactFraction(dev_), 1.0);
    // Media stays encrypted: out of scope.
    EXPECT_DOUBLE_EQ(media.intactFraction(dev_), 0.0);
}

TEST_F(HistoryTest, RangeRecoveryCheaperThanFullRollback)
{
    attack::VictimDataset victim(0, 16);
    victim.populate(dev_);
    for (int i = 0; i < 500; i++)
        dev_.writePage(200 + i % 100,
                       page(static_cast<std::uint8_t>(i)));
    const std::uint64_t pre = 16;

    dev_.drainOffload();
    DeviceHistory history(dev_);
    RecoveryEngine engine(history);
    const RecoveryReport r = engine.recoverRange(0, 16, pre);
    EXPECT_TRUE(r.ok());
    // Only the 16 in-scope LBAs were examined, not the 100 churned.
    EXPECT_EQ(r.lpasExamined, 16u);
}

TEST_F(HistoryTest, EmptyDeviceHistoryIsSane)
{
    DeviceHistory history(dev_);
    EXPECT_TRUE(history.entries().empty());
    EXPECT_TRUE(history.verifyEvidenceChain());
    EXPECT_EQ(history.findVersion(0), nullptr);
    EXPECT_TRUE(history.entriesFor(0).empty());
}

} // namespace
} // namespace rssd::core
