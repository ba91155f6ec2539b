/**
 * @file
 * In-DRAM target-row-refresh (TRR) sampler model.
 *
 * Modern DDR4 devices ship a vendor-secret "TRR" mechanism: a small
 * sampler latches a few aggressor-row candidates between refresh
 * commands, and each REF refreshes the neighbors of the sampled rows.
 * The paper's Section 6 evaluates controller-side mechanisms; this
 * model adds the in-DRAM sampler the modern attack literature
 * (TRRespass, Blacksmith) targets, so the repository can reproduce the
 * headline modern result: a sampler of capacity S stops single- and
 * double-sided hammering cold, but an N-sided pattern with more
 * aggressors than sampler slots (N > S) saturates the sampler and leaks
 * bit flips.
 *
 * Like the published attacks' victim devices, the sampler is
 * deterministic by design: the first S distinct rows activated after a
 * REF take the slots. That is exactly what makes it adversarially
 * bypassable: the attacker front-loads decoy aggressors so the
 * sampler's slots are full before the real pair fires.
 */

#ifndef ROWHAMMER_MITIGATION_TRR_HH
#define ROWHAMMER_MITIGATION_TRR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mitigation/mitigation.hh"

namespace rowhammer::mitigation
{

/** In-DRAM TRR sampler; see the file comment. */
class TrrSampler : public Mitigation
{
  public:
    /** @param sampler_size Aggressor candidates the sampler holds per
     *      REF interval (>= 1); every one is serviced at the REF. */
    explicit TrrSampler(int sampler_size = 4);

    std::string name() const override { return "TRR"; }

    void onActivate(int flat_bank, int row, dram::Cycle now,
                    std::vector<VictimRef> &out) override;

    /**
     * onActivate is a run of one. A run is always consumed whole: its
     * first activation either hits the sampler or takes a free slot
     * (the row then hits for the rest of the run), or misses a full
     * table, which stays unchanged, so every later activation misses
     * too.
     */
    std::int64_t onActivateRun(int flat_bank, int row, std::int64_t count,
                               dram::Cycle first,
                               std::vector<VictimRef> &out) override;

    /**
     * Service the sampler: refresh row +/- 1 of every sampled row in
     * slot order, then clear the interval-scoped sampler state.
     */
    void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                   std::vector<VictimRef> &out) override;

    /** Rows currently latched in the sampler (tests). */
    std::size_t sampledRows() const { return table_.size(); }

  private:
    struct Entry
    {
        int flatBank;
        int row;
    };

    /** True iff (bank, row) is latched in the sampler. */
    bool sampled(int flat_bank, int row) const;

    int samplerSize_;
    std::vector<Entry> table_;
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_TRR_HH
