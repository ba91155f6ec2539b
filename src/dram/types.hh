/**
 * @file
 * Fundamental DRAM types shared across the device model, controller, and
 * characterization code: command opcodes, device addresses, and DRAM
 * standards.
 */

#ifndef ROWHAMMER_DRAM_TYPES_HH
#define ROWHAMMER_DRAM_TYPES_HH

#include <cstdint>
#include <string>

namespace rowhammer::dram
{

/** Simulation time in device clock cycles. */
using Cycle = std::int64_t;

/** The three DRAM standards characterized in the paper. */
enum class Standard
{
    DDR3,
    DDR4,
    LPDDR4,
};

/**
 * DRAM bus commands modeled by the device. PREA precharges all banks in a
 * rank; REF is an all-bank auto-refresh.
 */
enum class Command
{
    ACT,
    PRE,
    PREA,
    RD,
    WR,
    REF,
    NumCommands,
};

/** Printable name, e.g. "ACT". */
std::string toString(Command cmd);

/** Number of distinct commands (for table sizing). */
constexpr int numCommands = static_cast<int>(Command::NumCommands);

/**
 * Fully-decoded device address. Fields beyond a command's scope are
 * ignored (e.g. row for RD; bank for PREA/REF). `channel` selects the
 * memory controller a request routes to (core::System); within one
 * controller/device every address belongs to that channel and the
 * field is carried but ignored.
 */
struct Address
{
    int channel = 0;
    int rank = 0;
    int bankGroup = 0;
    int bank = 0;
    int row = 0;
    int column = 0;

    bool operator==(const Address &) const = default;
};

/**
 * Flattened bank index helpers live on Organization (organization.hh);
 * Address stays a dumb record so it can cross module boundaries freely.
 */

} // namespace rowhammer::dram

#endif // ROWHAMMER_DRAM_TYPES_HH
