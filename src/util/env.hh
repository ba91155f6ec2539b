/**
 * @file
 * Strict environment-knob parsing shared by the bench binaries. The
 * predecessor (bench_common.hh's std::atol) silently turned malformed
 * values like `RH_THREADS=four` into 0, changing pool width or grid
 * shape without a word; these helpers fatal() on garbage instead so a
 * typo fails loudly at startup.
 */

#ifndef ROWHAMMER_UTIL_ENV_HH
#define ROWHAMMER_UTIL_ENV_HH

#include <limits>
#include <string>

namespace rowhammer::util
{

/**
 * Parse a base-10 integer strictly: optional sign, digits, optional
 * surrounding whitespace, nothing else. fatal() (naming `what`) on an
 * empty string, trailing garbage, or out-of-range values.
 */
[[nodiscard]] long parseLong(const std::string &text,
                             const std::string &what);

/**
 * Integer knob from the environment. Unset (or set to the empty
 * string, the conventional "unset" spelling) returns the fallback;
 * anything else must strict-parse and lie in [lo, hi] or the process
 * fatal()s, naming the variable (a caller that narrows the value
 * passes the target type's range, so nothing wraps).
 */
[[nodiscard]] long envLong(const char *name, long fallback,
                           long lo = std::numeric_limits<long>::min(),
                           long hi = std::numeric_limits<long>::max());

/** String knob from the environment with a default. */
[[nodiscard]] std::string envString(const char *name,
                                    const std::string &fallback);

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_ENV_HH
