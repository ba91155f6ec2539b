/**
 * @file
 * Common interface for RowHammer mitigation mechanisms (Section 6.1).
 *
 * All six evaluated mechanisms are ACT-stream observers: the memory
 * controller reports every row activation, and the mechanism may request
 * targeted refreshes of victim rows (implemented by the controller as
 * high-priority ACT+PRE row cycles) and/or scale the auto-refresh rate.
 * This matches how the paper's simulated controller hosts them and makes
 * the ideal oracle just another observer.
 */

#ifndef ROWHAMMER_MITIGATION_MITIGATION_HH
#define ROWHAMMER_MITIGATION_MITIGATION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/types.hh"

namespace rowhammer::mitigation
{

/** A victim row the mechanism wants refreshed. */
struct VictimRef
{
    int flatBank = 0;
    int row = 0;
};

/**
 * Abstract RowHammer mitigation mechanism.
 *
 * Implementations must be deterministic given their constructor Rng
 * seed; the controller guarantees onActivate is called exactly once per
 * demand/auto ACT (not for ACTs the mechanism itself induced). The
 * attack session (attack::runPattern) reports a pattern's runs of
 * consecutive same-row ACTs through onActivateRun instead, which must
 * leave the mechanism in the state the same ACTs fed one at a time
 * through onActivate would.
 */
class Mitigation
{
  public:
    virtual ~Mitigation() = default;

    /** Mechanism name for reports, e.g. "PARA". */
    virtual std::string name() const = 0;

    /**
     * Observe an activation of (flat_bank, row) at cycle `now`; append
     * any victim rows to refresh to `out`.
     */
    virtual void onActivate(int flat_bank, int row, dram::Cycle now,
                            std::vector<VictimRef> &out) = 0;

    /**
     * Observe up to `count` (>= 1) consecutive activations of
     * (flat_bank, row) at cycles first, first + 1, ...; stop right
     * after the first one that appends victims to `out` (empty on
     * entry). Returns how many activations were observed, in
     * [1, count]; it may stop early for any reason, and the caller
     * hands the rest of the run back. The default calls onActivate
     * once per activation; mechanisms override it where a run has a
     * closed form.
     */
    virtual std::int64_t
    onActivateRun(int flat_bank, int row, std::int64_t count,
                  dram::Cycle first, std::vector<VictimRef> &out)
    {
        for (std::int64_t i = 0; i < count; ++i) {
            onActivate(flat_bank, row, first + i, out);
            if (!out.empty())
                return i + 1;
        }
        return count;
    }

    /**
     * Observe an auto-refresh command. `ref_index` counts REFs since
     * start; rows_per_ref rows per bank advance through the refresh
     * rotation per REF. Mechanisms use this for pruning (TWiCe), table
     * service (ProHIT), or counter clearing (Ideal).
     */
    virtual void onRefresh(std::uint64_t ref_index, int rows_per_ref,
                           std::vector<VictimRef> &out)
    {
        (void)ref_index;
        (void)rows_per_ref;
        (void)out;
    }

    /**
     * Auto-refresh rate multiplier (> 1 shortens tREFI). Only the
     * increased-refresh-rate mechanism returns a value above 1.
     */
    virtual double refreshRateMultiplier() const { return 1.0; }

    /**
     * True if the mechanism's design remains implementable at its
     * configured HCfirst (Section 6.1 discusses the scalability limits
     * of the increased refresh rate and TWiCe).
     */
    virtual bool feasible() const { return true; }
};

/** No-op mechanism used for baseline runs. */
class NoMitigation : public Mitigation
{
  public:
    std::string name() const override { return "None"; }

    void
    onActivate(int, int, dram::Cycle, std::vector<VictimRef> &) override
    {
    }
};

} // namespace rowhammer::mitigation

#endif // ROWHAMMER_MITIGATION_MITIGATION_HH
