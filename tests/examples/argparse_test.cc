/**
 * @file
 * ArgParser tests: the flag grammar every example CLI shares. A
 * value that is itself a flag must fail loudly instead of swallowing
 * that flag.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "examples/argparse.hh"

namespace rssd::examples {
namespace {

/** Owns an argv (program name first) for ArgParser. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : args_(std::move(args))
    {
        args_.insert(args_.begin(), "prog");
        for (std::string &a : args_)
            ptrs_.push_back(a.data());
    }

    ArgParser
    parser()
    {
        return ArgParser(static_cast<int>(ptrs_.size()), ptrs_.data());
    }

  private:
    std::vector<std::string> args_;
    std::vector<char *> ptrs_;
};

TEST(ArgParser, ReadsValuesAndBareFlags)
{
    Argv argv({"--json", "out.json", "--health-check", "--devices", "4"});
    ArgParser args = argv.parser();
    EXPECT_EQ(args.u64("--devices", 16), 4u);
    EXPECT_EQ(args.str("--json", ""), "out.json");
    EXPECT_TRUE(args.flag("--health-check"));
    EXPECT_EQ(args.str("--trace-out", "none"), "none");
    args.finish("usage");
}

TEST(ArgParser, FlagTakenAsAValueIsFatal)
{
    Argv argv({"--json", "--health-check"});
    ArgParser args = argv.parser();
    EXPECT_EXIT(args.str("--json", ""), ::testing::ExitedWithCode(1),
                "fatal: flag --json: missing value");
    EXPECT_EXIT(args.u64("--json", 0), ::testing::ExitedWithCode(1),
                "fatal: flag --json: missing value");
}

} // namespace
} // namespace rssd::examples
