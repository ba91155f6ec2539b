/**
 * @file
 * The DRAM data patterns the paper sweeps (Section 4.3): solid, column
 * stripe, checkered, and row stripe, each in both polarities. A pattern
 * fixes the byte written to the victim row and the byte written to the
 * aggressor (and all other) rows; checkered/rowstripe write the inverse
 * byte into alternating rows.
 */

#ifndef ROWHAMMER_FAULT_DATAPATTERN_HH
#define ROWHAMMER_FAULT_DATAPATTERN_HH

#include <array>
#include <cstdint>
#include <string>

#include "util/logging.hh"

namespace rowhammer::fault
{

/** The eight data patterns of Section 4.3. */
enum class DataPattern
{
    Solid0,      ///< victim 0x00, aggressors 0x00.
    Solid1,      ///< victim 0xFF, aggressors 0xFF.
    ColStripe0,  ///< victim 0x55, aggressors 0x55.
    ColStripe1,  ///< victim 0xAA, aggressors 0xAA.
    Checkered0,  ///< victim 0x55, aggressors 0xAA.
    Checkered1,  ///< victim 0xAA, aggressors 0x55.
    RowStripe0,  ///< victim 0x00, aggressors 0xFF.
    RowStripe1,  ///< victim 0xFF, aggressors 0x00.
    NumPatterns,
};

constexpr int numDataPatterns = static_cast<int>(DataPattern::NumPatterns);

/**
 * The six patterns Figure 4 sweeps (RS0, RS1, CS0, CS1, CH0, CH1); the
 * solid patterns are strictly dominated and the figure omits them.
 */
std::array<DataPattern, 6> figure4Patterns();

/** Byte written to every byte of the victim row. */
inline std::uint8_t
victimByte(DataPattern dp)
{
    constexpr std::array<std::uint8_t, numDataPatterns> table{
        0x00, 0xFF, 0x55, 0xAA, 0x55, 0xAA, 0x00, 0xFF};
    if (static_cast<std::size_t>(dp) >= table.size())
        util::panic("victimByte: unknown pattern");
    return table[static_cast<std::size_t>(dp)];
}

/** Byte written to every byte of the aggressor (and alternate) rows. */
inline std::uint8_t
aggressorByte(DataPattern dp)
{
    constexpr std::array<std::uint8_t, numDataPatterns> table{
        0x00, 0xFF, 0x55, 0xAA, 0xAA, 0x55, 0xFF, 0x00};
    if (static_cast<std::size_t>(dp) >= table.size())
        util::panic("aggressorByte: unknown pattern");
    return table[static_cast<std::size_t>(dp)];
}

/** Short name used in figures, e.g. "RS0", "CH1". */
std::string toString(DataPattern dp);

/** Value of bit `bit_index` within a row filled with `fill_byte`. */
inline bool
patternBit(std::uint8_t fill_byte, std::size_t bit_index)
{
    return (fill_byte >> (bit_index % 8)) & 1;
}

} // namespace rowhammer::fault

#endif // ROWHAMMER_FAULT_DATAPATTERN_HH
