#include "env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace rowhammer::util
{

long
parseLong(const std::string &text, const std::string &what)
{
    errno = 0;
    const char *begin = text.c_str();
    char *end = nullptr;
    const long value = std::strtol(begin, &end, 10);
    if (errno == ERANGE) {
        fatal(what + ": value '" + text +
              "' is out of range for a long");
    }
    if (end == begin)
        fatal(what + ": expected an integer, got '" + text + "'");
    while (*end != '\0' &&
           std::isspace(static_cast<unsigned char>(*end)))
        ++end;
    if (*end != '\0')
        fatal(what + ": expected an integer, got '" + text + "'");
    return value;
}

long
envLong(const char *name, long fallback, long lo, long hi)
{
    const char *value = std::getenv(name);
    if (!value || *value == '\0')
        return fallback;
    const long parsed = parseLong(value, name);
    if (parsed < lo || parsed > hi) {
        fatal(std::string(name) + ": value " + value + " is outside [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return parsed;
}

std::string
envString(const char *name, const std::string &fallback)
{
    if (const char *value = std::getenv(name))
        return value;
    return fallback;
}

} // namespace rowhammer::util
