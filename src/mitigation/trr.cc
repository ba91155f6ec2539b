#include "trr.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rowhammer::mitigation
{

TrrSampler::TrrSampler(std::uint64_t seed) : TrrSampler(seed, Params{}) {}

TrrSampler::TrrSampler(std::uint64_t seed, Params params)
    : params_(params), rng_(seed)
{
    if (params_.samplerSize < 1 || params_.refreshSlotsPerRef < 1 ||
        params_.neighborDistance < 1) {
        util::fatal("TrrSampler: sampler size, refresh-slot budget and "
                    "neighbor distance must be positive");
    }
    table_.reserve(static_cast<std::size_t>(params_.samplerSize));
}

int
TrrSampler::find(int flat_bank, int row) const
{
    for (std::size_t i = 0; i < table_.size(); ++i) {
        if (table_[i].flatBank == flat_bank && table_[i].row == row)
            return static_cast<int>(i);
    }
    return -1;
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

    // A row that hits, or takes a free slot, hits for the rest of the
    // run: nothing else touches the table until the run ends.
    const auto n = static_cast<std::uint64_t>(count);
    const int idx = find(flat_bank, row);
    if (idx >= 0) {
        table_[static_cast<std::size_t>(idx)].count += n;
        return count;
    }

    if (static_cast<int>(table_.size()) < params_.samplerSize) {
        table_.push_back(Entry{flat_bank, row, n});
        return count;
    }

    switch (params_.policy) {
      case Policy::InOrder:
        // Slots are taken for the rest of the interval; the activations
        // go unsampled. This is the saturation an N-sided pattern
        // with front-loaded decoys exploits.
        missesSinceRef_ += n;
        return count;
      case Policy::Frequency:
        // Misra-Gries: a miss against a full table decrements every
        // counter; exhausted entries free their slot. The new row is
        // not inserted (it only wins a slot once incumbents decay).
        ++missesSinceRef_;
        for (Entry &entry : table_)
            --entry.count;
        std::erase_if(table_,
                      [](const Entry &entry) { return entry.count == 0; });
        break;
      case Policy::Random: {
        // Reservoir sampling over this interval's sampler misses: the
        // k-th miss replaces a uniformly random slot with probability
        // size / (size + k).
        ++missesSinceRef_;
        const double p = static_cast<double>(params_.samplerSize) /
            static_cast<double>(
                static_cast<std::uint64_t>(params_.samplerSize) +
                missesSinceRef_);
        if (rng_.bernoulli(p)) {
            const std::size_t slot = static_cast<std::size_t>(
                rng_.uniformInt(0, table_.size() - 1));
            table_[slot] = Entry{flat_bank, row, 1};
        }
        break;
      }
    }
    // A Frequency or Random miss changes the table, so it consumes one
    // activation; the caller hands back the rest of the run.
    return 1;
}

void
TrrSampler::onRefresh(std::uint64_t ref_index, int rows_per_ref,
                      std::vector<VictimRef> &out)
{
    (void)ref_index;
    (void)rows_per_ref;

    // Frequency policy services the hottest candidates first; the
    // interval-scoped policies service slots in arrival order.
    if (params_.policy == Policy::Frequency) {
        std::stable_sort(table_.begin(), table_.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.count > b.count;
                         });
    }

    const std::size_t serviced = std::min(
        table_.size(),
        static_cast<std::size_t>(params_.refreshSlotsPerRef));
    for (std::size_t i = 0; i < serviced; ++i) {
        const Entry &entry = table_[i];
        const int d = params_.neighborDistance;
        if (entry.row - d >= 0)
            out.push_back(VictimRef{entry.flatBank, entry.row - d});
        out.push_back(VictimRef{entry.flatBank, entry.row + d});
    }

    // The sampler state is interval-scoped: REF arms a fresh interval.
    // (Under Frequency, unserviced survivors also restart; keeping them
    // would only help the defender against patterns our adversarial
    // tests already show defeating the counters.)
    table_.clear();
    missesSinceRef_ = 0;
}

} // namespace rowhammer::mitigation
