/**
 * @file
 * A deliberately tiny command-line parser shared by the example
 * binaries (rssd_fleet's CLI and the --seed flags on the tours).
 *
 * Grammar: flags are "--name value" or bare "--name"; anything not
 * consumed as a value must itself be a flag. Unknown flags are
 * fatal() so typos fail loudly instead of silently running the
 * default configuration.
 */

#ifndef RSSD_EXAMPLES_ARGPARSE_HH
#define RSSD_EXAMPLES_ARGPARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace rssd::examples {

class ArgParser
{
  public:
    ArgParser(int argc, char **argv)
    {
        for (int i = 1; i < argc; i++)
            args_.emplace_back(argv[i]);
    }

    /** True if bare flag @p name is present (consumes it). */
    bool
    flag(const std::string &name)
    {
        for (std::size_t i = 0; i < args_.size(); i++) {
            if (args_[i] == name) {
                args_.erase(args_.begin() + i);
                return true;
            }
        }
        return false;
    }

    /** Value of "--name value", or @p fallback when absent. A value
     *  that is itself a flag ("--json --health-check") is fatal:
     *  taking it would silently drop that flag. */
    std::string
    str(const std::string &name, const std::string &fallback)
    {
        for (std::size_t i = 0; i + 1 < args_.size(); i++) {
            if (args_[i] == name) {
                const std::string v = args_[i + 1];
                if (v.rfind("--", 0) == 0)
                    fatal("flag " + name + ": missing value");
                args_.erase(args_.begin() + i, args_.begin() + i + 2);
                return v;
            }
        }
        return fallback;
    }

    std::uint64_t
    u64(const std::string &name, std::uint64_t fallback)
    {
        const std::string v = str(name, "");
        if (v.empty())
            return fallback;
        // Digits only: strtoull would silently wrap "-1" and
        // overflowing values to huge positives.
        for (char c : v) {
            if (c < '0' || c > '9')
                fatal("flag " + name +
                      ": not a non-negative integer: " + v);
        }
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(v.c_str(),
                                                        &end, 10);
        if (end == nullptr || *end != '\0' || errno == ERANGE)
            fatal("flag " + name + ": out of range: " + v);
        return parsed;
    }

    /** Call after all lookups: any leftover argument is a typo. */
    void
    finish(const std::string &usage)
    {
        if (args_.empty())
            return;
        fatal("unknown argument \"" + args_.front() + "\"\nusage: " +
              usage);
    }

  private:
    std::vector<std::string> args_;
};

} // namespace rssd::examples

#endif // RSSD_EXAMPLES_ARGPARSE_HH
