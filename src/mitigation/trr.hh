/**
 * @file
 * Parameterizable in-DRAM target-row-refresh (TRR) sampler model.
 *
 * Modern DDR4 devices ship a vendor-secret "TRR" mechanism: a small
 * sampler latches a few aggressor-row candidates between refresh
 * commands, and each REF donates a handful of refresh slots to the
 * neighbors of sampled rows. The paper's Section 6 evaluates
 * controller-side mechanisms; this model adds the in-DRAM sampler the
 * modern attack literature (TRRespass, Blacksmith) targets, so the
 * repository can reproduce the headline modern result: a sampler of
 * capacity S stops single- and double-sided hammering cold, but an
 * N-sided pattern with more aggressors than sampler slots (N > S)
 * saturates the sampler and leaks bit flips.
 *
 * Like the published attacks' victim devices, the sampler is
 * deterministic-by-design in its default policy — which is exactly what
 * makes it adversarially bypassable: the attacker front-loads decoy
 * aggressors so the sampler's slots are full before the real pair
 * fires. Alternative sampling policies (frequency counters, reservoir
 * sampling) are provided for sensitivity studies.
 */

#ifndef ROWHAMMER_MITIGATION_TRR_HH
#define ROWHAMMER_MITIGATION_TRR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mitigation/mitigation.hh"
#include "util/rng.hh"

namespace rowhammer::mitigation
{

/** In-DRAM TRR sampler; see the file comment. */
class TrrSampler : public Mitigation
{
  public:
    /** How activations compete for the sampler's slots. */
    enum class Policy
    {
        /**
         * First-come-per-interval: the first `samplerSize` distinct
         * rows activated after a REF occupy the slots; later rows are
         * dropped. Models the deterministic samplers TRRespass
         * saturates.
         */
        InOrder,
        /**
         * Misra-Gries frequent-items counters: a full table decrements
         * every counter on a miss and evicts zeros. Saturates under
         * many equal-frequency aggressors (the counters cancel).
         */
        Frequency,
        /** Reservoir sampling over the interval's activations. */
        Random,
    };

    struct Params
    {
        /** Aggressor candidates the sampler can hold. */
        int samplerSize = 4;
        Policy policy = Policy::InOrder;
        /**
         * Sampled entries whose neighbors are refreshed per REF (the
         * per-tREFI refresh-slot budget the device steals for TRR).
         */
        int refreshSlotsPerRef = 4;
        /** Victim distance of a serviced aggressor (row +/- d). */
        int neighborDistance = 1;
    };

    explicit TrrSampler(std::uint64_t seed);
    TrrSampler(std::uint64_t seed, Params params);

    std::string name() const override { return "TRR"; }

    void onActivate(int flat_bank, int row, dram::Cycle now,
                    std::vector<VictimRef> &out) override;

    /**
     * onActivate is a run of one. A run is consumed whole when its
     * first activation hits the sampler or takes a free slot (the row
     * then hits for the rest of the run), or misses under InOrder (the
     * full table is unchanged, so every later activation misses too).
     * A Frequency or Random miss changes the table and consumes one
     * activation: a Misra-Gries eviction can free a slot mid-run, and
     * reservoir sampling draws once per miss.
     */
    std::int64_t onActivateRun(int flat_bank, int row, std::int64_t count,
                               dram::Cycle first,
                               std::vector<VictimRef> &out) override;

    /**
     * Service the sampler: refresh the neighbors of up to
     * refreshSlotsPerRef sampled rows (highest activation count first
     * under the Frequency policy, slot order otherwise), then clear the
     * interval-scoped sampler state.
     */
    void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                   std::vector<VictimRef> &out) override;

    const Params &params() const { return params_; }

    /** Rows currently latched in the sampler (tests). */
    std::size_t sampledRows() const { return table_.size(); }

  private:
    struct Entry
    {
        int flatBank;
        int row;
        std::uint64_t count;
    };

    /** Index of (bank, row) in the sampler, or -1. */
    int find(int flat_bank, int row) const;

    Params params_;
    util::Rng rng_;
    std::vector<Entry> table_;
    /** Sampler-miss activations this interval (reservoir denominator). */
    std::uint64_t missesSinceRef_ = 0;
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_TRR_HH
