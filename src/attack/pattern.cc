#include "pattern.hh"

#include <algorithm>
#include <cstdlib>

namespace rowhammer::attack
{

std::int64_t
AccessPattern::activationsPerPeriod() const
{
    std::int64_t total = 0;
    for (const AggressorSlot &slot : slots) {
        total += static_cast<std::int64_t>(slot.frequency) *
            static_cast<std::int64_t>(slot.amplitude);
    }
    return total;
}

std::int64_t
AccessPattern::activationBudget() const
{
    return static_cast<std::int64_t>(periods) * activationsPerPeriod();
}

std::vector<fault::AggressorDose>
AccessPattern::bursts() const
{
    std::vector<fault::AggressorDose> out;
    for (int tick = 0; tick < basePeriod; ++tick) {
        for (const AggressorSlot &slot : slots) {
            const int interval = basePeriod / slot.frequency;
            if (tick < slot.phase || (tick - slot.phase) % interval != 0)
                continue;
            if (!out.empty() && out.back().row == slot.row)
                out.back().count += slot.amplitude;
            else
                out.push_back(fault::AggressorDose{slot.row, slot.amplitude});
        }
    }
    return out;
}

void
AccessPattern::expand(std::vector<int> &out) const
{
    out.clear();
    out.reserve(static_cast<std::size_t>(activationBudget()));
    const std::vector<fault::AggressorDose> period = bursts();
    for (int p = 0; p < periods; ++p) {
        for (const fault::AggressorDose &burst : period) {
            out.insert(out.end(), static_cast<std::size_t>(burst.count),
                       burst.row);
        }
    }
}

std::vector<fault::AggressorDose>
AccessPattern::doses() const
{
    std::vector<fault::AggressorDose> out;
    out.reserve(slots.size());
    for (const AggressorSlot &slot : slots) {
        const std::int64_t count = static_cast<std::int64_t>(periods) *
            slot.frequency * slot.amplitude;
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const fault::AggressorDose &d) {
                                   return d.row == slot.row;
                               });
        if (it != out.end())
            it->count += count;
        else
            out.push_back(fault::AggressorDose{slot.row, count});
    }
    std::sort(out.begin(), out.end(),
              [](const fault::AggressorDose &a,
                 const fault::AggressorDose &b) { return a.row < b.row; });
    return out;
}

std::vector<int>
AccessPattern::rows() const
{
    std::vector<int> out;
    out.reserve(slots.size());
    for (const AggressorSlot &slot : slots)
        out.push_back(slot.row);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
AccessPattern::hasAggressor(int row) const
{
    return std::any_of(slots.begin(), slots.end(),
                       [&](const AggressorSlot &slot) {
                           return slot.row == row;
                       });
}

bool
AccessPattern::wellFormed(std::string *why) const
{
    const auto fail = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    if (slots.empty())
        return fail("pattern has no aggressor slots");
    if (basePeriod < 1 || periods < 1)
        return fail("base period and period count must be positive");

    for (const AggressorSlot &slot : slots) {
        if (slot.frequency < 1 || basePeriod % slot.frequency != 0)
            return fail("slot frequency must divide the base period");
        if (slot.amplitude < 1)
            return fail("slot amplitude must be positive");
        const int interval = basePeriod / slot.frequency;
        if (slot.phase < 0 || slot.phase >= interval)
            return fail("slot phase must lie within its firing interval");
        if (slot.row == victimRow)
            return fail("the victim row cannot be an aggressor");
        if (slot.row < 0)
            return fail("aggressor row below the array");
        if (std::abs(slot.row - victimRow) > blastRadius)
            return fail("aggressor outside the declared blast radius");
    }

    for (std::size_t i = 0; i < slots.size(); ++i) {
        for (std::size_t j = i + 1; j < slots.size(); ++j) {
            if (slots[i].row == slots[j].row)
                return fail("duplicate aggressor row across slots");
        }
    }
    return true;
}

} // namespace rowhammer::attack
