/**
 * @file
 * Typed request and result payloads of the campaign daemon, built on
 * the run-description serialization (the same bit-stable encoding the
 * checkpoint stores persist). Every decode returns false on truncated
 * or trailing bytes instead of crashing — a malformed request must
 * come back as a MalformedRequest reply, never UB.
 *
 * The request config bytes double as the memo identity: the daemon
 * keys its result cache by fnv1a(type tag + config bytes), so two
 * clients sending the same run description — regardless of deadline,
 * thread count, or retry history — share one computed result,
 * byte-identical.
 */

#ifndef ROWHAMMER_SERVICE_REQUESTS_HH
#define ROWHAMMER_SERVICE_REQUESTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/sweep.hh"
#include "charlib/hcfirst.hh"
#include "core/experiment.hh"
#include "fault/population.hh"

namespace rowhammer::service
{

/** Figure 10 request: the experiment plus the HCfirst sweep axis. */
struct Fig10Request
{
    core::ExperimentConfig config;
    std::vector<double> hcFirsts;

    std::string encode() const;
    [[nodiscard]] static bool decode(const std::string &bytes,
                                     Fig10Request &out);
};

/** Attack-sweep request: the SweepConfig run description verbatim. */
struct AttackSweepRequest
{
    attack::SweepConfig config;

    std::string encode() const;
    [[nodiscard]] static bool decode(const std::string &bytes,
                                     AttackSweepRequest &out);
};

/** HCfirst measurement over an explicit chip population. */
struct HcFirstRequest
{
    std::uint64_t seed = 2020;
    charlib::HcFirstOptions options;
    fault::ChipGeometry geometry;
    std::vector<fault::ChipInstance> chips;

    std::string encode() const;
    [[nodiscard]] static bool decode(const std::string &bytes,
                                     HcFirstRequest &out);
};

/** Fig10 result: the sweep grid, bit-exact. */
std::string encodeFig10Points(const std::vector<core::SweepPoint> &points);
[[nodiscard]] bool decodeFig10Points(const std::string &bytes,
                       std::vector<core::SweepPoint> &out);

/** Attack-sweep result: the cell table, bit-exact. */
std::string encodeSweepCells(const std::vector<attack::SweepCell> &cells);
[[nodiscard]] bool decodeSweepCells(const std::string &bytes,
                      std::vector<attack::SweepCell> &out);

/** HCfirst result: one optional threshold per requested chip. */
std::string encodeHcFirstResults(
    const std::vector<std::optional<std::int64_t>> &results);
[[nodiscard]] bool decodeHcFirstResults(
    const std::string &bytes,
    std::vector<std::optional<std::int64_t>> &out);

} // namespace rowhammer::service

#endif // ROWHAMMER_SERVICE_REQUESTS_HH
