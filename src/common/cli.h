/**
 * @file
 * Strict command-line parser shared by the tools and bench binaries.
 *
 * One registry, one behavior everywhere: flags are declared up front
 * with a destination and a help line, parsing is strict — an unknown
 * flag or a missing/malformed value prints a message plus the usage
 * block to stderr and exits 2, so a typo like --qiuck can never
 * silently change what a run measured — and --help prints the same
 * usage block to stdout and exits 0.  The usage text is generated from
 * the registry, which keeps it from drifting out of sync with the
 * accepted flags (the failure mode the hand-rolled loops this replaces
 * had: hoardctl's usage still advertised the v1 timeline schema).
 *
 * Header-only and allocation-light on purpose: bench binaries include
 * it before any allocator exists.
 */

#ifndef HOARD_COMMON_CLI_H_
#define HOARD_COMMON_CLI_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"

namespace hoard {
namespace cli {

/** basename(argv[0]) — stable program identifier for messages. */
inline std::string
program_name(const char* argv0, const char* fallback = "tool")
{
    std::string name = argv0 != nullptr ? argv0 : fallback;
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name;
}

/**
 * The flag registry and parser.  Declare every flag with an add_*
 * call, then call parse(); destinations keep their initial values when
 * the flag is absent, so defaults live at the declaration site of the
 * options struct, visible next to their documentation.
 */
class Parser
{
  public:
    /** @p summary: one line printed under "usage:", may be empty. */
    explicit Parser(std::string summary = "") :
        summary_(std::move(summary))
    {
    }

    /** Presence flag: stores @p value (default true) into @p out. */
    void
    add_flag(const char* name, const char* help, bool* out,
             bool value = true)
    {
        Flag f;
        f.name = name;
        f.help = help;
        f.kind = Flag::kBool;
        f.out_bool = out;
        f.bool_value = value;
        flags_.push_back(std::move(f));
    }

    /** Bounded decimal int; rejects non-numeric and out-of-range. */
    void
    add_int(const char* name, const char* metavar, const char* help,
            int* out, long long min = 1, long long max = 1 << 20)
    {
        Flag f;
        f.name = name;
        f.metavar = metavar;
        f.help = help;
        f.kind = Flag::kInt;
        f.out_int = out;
        f.min = min;
        f.max = max;
        flags_.push_back(std::move(f));
    }

    /** Bounded decimal uint64 (byte counts, intervals, rates). */
    void
    add_uint64(const char* name, const char* metavar, const char* help,
               std::uint64_t* out, std::uint64_t min = 0,
               std::uint64_t max =
                   std::numeric_limits<std::uint64_t>::max())
    {
        Flag f;
        f.name = name;
        f.metavar = metavar;
        f.help = help;
        f.kind = Flag::kUint64;
        f.out_u64 = out;
        f.umin = min;
        f.umax = max;
        flags_.push_back(std::move(f));
    }

    /** Free-form string value (paths, prefixes). */
    void
    add_string(const char* name, const char* metavar, const char* help,
               std::string* out)
    {
        Flag f;
        f.name = name;
        f.metavar = metavar;
        f.help = help;
        f.kind = Flag::kString;
        f.out_string = out;
        flags_.push_back(std::move(f));
    }

    /** Generated from the registry; --help is appended implicitly. */
    void
    print_usage(const std::string& program, std::ostream& os) const
    {
        os << "usage: " << program << " [options]\n";
        if (!summary_.empty())
            os << "  " << summary_ << "\n";
        for (const Flag& f : flags_)
            print_flag(os, f.name, f.metavar, f.help);
        print_flag(os, "--help", "", "show this message and exit");
    }

    /**
     * Strict parse: every argv element must be a registered flag (with
     * its value where one is declared).  Errors exit 2 after printing
     * the reason and the usage block to stderr; --help exits 0.
     */
    void
    parse(int argc, char** argv)
    {
        const std::string program =
            program_name(argc > 0 ? argv[0] : nullptr);
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--help") == 0) {
                print_usage(program, std::cout);
                std::exit(0);
            }
            const Flag* flag = find(argv[i]);
            if (flag == nullptr)
                die(program, std::string("unknown option '") +
                                 argv[i] + "'");
            if (flag->kind == Flag::kBool) {
                *flag->out_bool = flag->bool_value;
                continue;
            }
            if (i + 1 >= argc)
                die(program, flag->name + " requires a value");
            const char* value = argv[++i];
            switch (flag->kind) {
              case Flag::kInt: {
                long long v = 0;
                if (!parse_ll(value, v) || v < flag->min ||
                    v > flag->max) {
                    die(program, flag->name + " expects an integer in ["
                                     + std::to_string(flag->min) + ", "
                                     + std::to_string(flag->max)
                                     + "], got '" + value + "'");
                }
                *flag->out_int = static_cast<int>(v);
                break;
              }
              case Flag::kUint64: {
                std::uint64_t v = 0;
                if (!parse_u64(value, v) || v < flag->umin ||
                    v > flag->umax) {
                    die(program, flag->name +
                                     " expects an unsigned integer >= "
                                     + std::to_string(flag->umin)
                                     + ", got '" + value + "'");
                }
                *flag->out_u64 = v;
                break;
              }
              case Flag::kString:
                *flag->out_string = value;
                break;
              case Flag::kBool:
                break;  // handled above
            }
        }
    }

  private:
    struct Flag
    {
        std::string name;
        std::string metavar;
        std::string help;
        enum Kind { kBool, kInt, kUint64, kString } kind = kBool;
        bool* out_bool = nullptr;
        bool bool_value = true;
        int* out_int = nullptr;
        long long min = 0;
        long long max = 0;
        std::uint64_t* out_u64 = nullptr;
        std::uint64_t umin = 0;
        std::uint64_t umax = 0;
        std::string* out_string = nullptr;
    };

    const Flag*
    find(const char* arg) const
    {
        for (const Flag& f : flags_)
            if (f.name == arg)
                return &f;
        return nullptr;
    }

    [[noreturn]] void
    die(const std::string& program, const std::string& message) const
    {
        std::cerr << program << ": " << message << "\n";
        print_usage(program, std::cerr);
        std::exit(2);
    }

    /** "  --name METAVAR    help", with embedded '\n' re-indented. */
    static void
    print_flag(std::ostream& os, const std::string& name,
               const std::string& metavar, const std::string& help)
    {
        constexpr std::size_t kHelpColumn = 22;
        std::string head = "  " + name;
        if (!metavar.empty())
            head += " " + metavar;
        if (head.size() + 2 <= kHelpColumn)
            head.append(kHelpColumn - head.size(), ' ');
        else
            head += "  ";
        os << head;
        for (char c : help) {
            os << c;
            if (c == '\n')
                os << std::string(kHelpColumn, ' ');
        }
        os << "\n";
    }

    static bool
    parse_ll(const char* s, long long& out)
    {
        char* end = nullptr;
        errno = 0;
        long long v = std::strtoll(s, &end, 10);
        if (end == s || *end != '\0' || errno == ERANGE)
            return false;
        out = v;
        return true;
    }

    static bool
    parse_u64(const char* s, std::uint64_t& out)
    {
        std::optional<std::uint64_t> v = detail::parse_decimal(s);
        if (!v)
            return false;
        out = *v;
        return true;
    }

    std::string summary_;
    std::vector<Flag> flags_;
};

}  // namespace cli
}  // namespace hoard

#endif  // HOARD_COMMON_CLI_H_
