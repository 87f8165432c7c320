/**
 * @file
 * The one grammar of the process-wide HOARD_* environment knobs.
 *
 * The knobs are read once, often from inside malloc bootstrap, and an
 * env typo must not abort or hang every process that loads the shim.
 * So both readers allocate nothing and never fail loudly: a value
 * outside the grammar reads as unset, and the knob keeps its default.
 *
 *  - Numbers: plain decimal digits, the whole string — no sign,
 *    whitespace or unit suffix ("64M" is invalid, not 64), and no
 *    value past 2^64 - 1.  Range checks stay with each knob.
 *  - Flags: 1/true/on or 0/false/off; anything else is unset.
 */

#ifndef HOARD_COMMON_ENV_H_
#define HOARD_COMMON_ENV_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>

namespace hoard {
namespace detail {

/** Strict decimal parse of the whole of @p s; nullopt when @p s is
    null, empty, holds a non-digit, or overflows 64 bits. */
inline std::optional<std::uint64_t>
parse_decimal(const char* s)
{
    if (s == nullptr || *s == '\0')
        return std::nullopt;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (; *s != '\0'; ++s) {
        if (*s < '0' || *s > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(*s - '0');
        if (value > (kMax - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

/** Numeric knob @p name; nullopt when unset or invalid. */
inline std::optional<std::uint64_t>
env_number(const char* name)
{
    return parse_decimal(std::getenv(name));
}

/** Flag knob @p name; nullopt when unset or invalid. */
inline std::optional<bool>
env_flag(const char* name)
{
    const char* v = std::getenv(name);
    if (v == nullptr)
        return std::nullopt;
    for (const char* on : {"1", "true", "on"}) {
        if (std::strcmp(v, on) == 0)
            return true;
    }
    for (const char* off : {"0", "false", "off"}) {
        if (std::strcmp(v, off) == 0)
            return false;
    }
    return std::nullopt;
}

}  // namespace detail
}  // namespace hoard

#endif  // HOARD_COMMON_ENV_H_
