#include "table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "logging.hh"

namespace rowhammer::util
{

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (!header_.empty() && row.size() != header_.size())
        panic("TextTable::addRow: column count mismatch");
    rows_.push_back(std::move(row));
}

void
TextTable::render(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i >= widths.size())
                widths.resize(i + 1, 0);
            widths[i] = std::max(widths[i], row[i].size());
        }
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << '\n';
    };
    print_row(header_);
    std::size_t rule = 0;
    for (std::size_t w : widths)
        rule += w + 2;
    os << std::string(rule, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fmt(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

std::string
fmtKilo(double value)
{
    std::ostringstream oss;
    const double k = value / 1000.0;
    if (value < 1000.0)
        oss << std::fixed << std::setprecision(0) << value;
    else if (k >= 100.0)
        oss << std::fixed << std::setprecision(0) << k << "k";
    else
        oss << std::fixed << std::setprecision(1) << k << "k";
    return oss.str();
}

std::string
fmtPercent(double ratio, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << ratio * 100.0
        << "%";
    return oss.str();
}

} // namespace rowhammer::util
