#include "trr.hh"

#include "util/logging.hh"

namespace rowhammer::mitigation
{

TrrSampler::TrrSampler(int sampler_size) : samplerSize_(sampler_size)
{
    if (samplerSize_ < 1)
        util::fatal("TrrSampler: sampler size must be positive");
    table_.reserve(static_cast<std::size_t>(samplerSize_));
}

bool
TrrSampler::sampled(int flat_bank, int row) const
{
    for (const Entry &entry : table_) {
        if (entry.flatBank == flat_bank && entry.row == row)
            return true;
    }
    return false;
}

void
TrrSampler::onActivate(int flat_bank, int row, dram::Cycle now,
                       std::vector<VictimRef> &out)
{
    (void)onActivateRun(flat_bank, row, 1, now, out);
}

std::int64_t
TrrSampler::onActivateRun(int flat_bank, int row, std::int64_t count,
                          dram::Cycle first, std::vector<VictimRef> &out)
{
    (void)first;
    (void)out; // TRR refreshes only under cover of REF commands.

    // Slots are taken first-come for the rest of the interval; once
    // they are full, the activations of any other row go unsampled.
    // This is the saturation an N-sided pattern with front-loaded
    // decoys exploits.
    if (static_cast<int>(table_.size()) < samplerSize_ &&
        !sampled(flat_bank, row)) {
        table_.push_back(Entry{flat_bank, row});
    }
    return count;
}

void
TrrSampler::onRefresh(std::uint64_t ref_index, int rows_per_ref,
                      std::vector<VictimRef> &out)
{
    (void)ref_index;
    (void)rows_per_ref;

    for (const Entry &entry : table_) {
        if (entry.row > 0)
            out.push_back(VictimRef{entry.flatBank, entry.row - 1});
        out.push_back(VictimRef{entry.flatBank, entry.row + 1});
    }

    // The sampler state is interval-scoped: REF arms a fresh interval.
    table_.clear();
}

} // namespace rowhammer::mitigation
