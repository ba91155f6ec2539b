/**
 * @file
 * ASCII table and series rendering for bench output. Every bench binary
 * prints the rows/series of its paper table or figure through these
 * helpers so output is uniform and diffable.
 */

#ifndef ROWHAMMER_UTIL_TABLE_HH
#define ROWHAMMER_UTIL_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace rowhammer::util
{

/**
 * Simple column-aligned ASCII table. Cells are strings; add header once,
 * then rows; render() pads columns to the widest cell.
 */
class TextTable
{
  public:
    /** Set the header row (also fixes the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render with column padding and a rule under the header. */
    void render(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given precision. */
std::string fmt(double value, int precision = 3);

/** Format like the paper's "x1000" hammer counts, e.g. 4800 -> "4.8k";
 *  values below 1000 print as integers, e.g. 128 -> "128". */
std::string fmtKilo(double value);

/** Format a ratio as a percentage string, e.g. 0.923 -> "92.3%". */
std::string fmtPercent(double ratio, int precision = 1);

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_TABLE_HH
