/**
 * @file
 * Cycle-accurate DRAM device model. Tracks per-bank/bank-group/rank/channel
 * timing state, validates every command against the active TimingSpec, and
 * exposes earliest-issue queries so a controller can schedule without
 * trial-and-error. An observer hook publishes the issued command stream to
 * interested parties (RowHammer fault model, mitigation mechanisms,
 * characterization instrumentation).
 */

#ifndef ROWHAMMER_DRAM_DEVICE_HH
#define ROWHAMMER_DRAM_DEVICE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "dram/organization.hh"
#include "dram/timing.hh"
#include "dram/types.hh"

namespace rowhammer::dram
{

/**
 * One DRAM channel: geometry + timing + state. All cycle arguments are in
 * device clock cycles and must be non-decreasing across issue() calls.
 */
class Device
{
  public:
    /** Callback invoked after every successfully issued command. */
    using Observer = std::function<void(Command, const Address &, Cycle)>;

    Device(Organization org, TimingSpec timing);

    const Organization &organization() const { return org_; }
    const TimingSpec &timing() const { return timing_; }

    /**
     * Earliest cycle >= now at which cmd to addr satisfies every timing
     * constraint. Bank open/closed state is not checked: a caller that
     * tracks its own open rows (sim::Controller) asks only this, and
     * canIssue() adds the state check for one that does not.
     */
    Cycle earliest(Command cmd, const Address &addr, Cycle now) const;

    /**
     * True iff cmd to addr is structurally legal at cycle `at` (bank
     * state allows it and all timing constraints are met).
     */
    bool canIssue(Command cmd, const Address &addr, Cycle at) const;

    /**
     * Issue cmd to addr at cycle `at`. Panics if the command violates
     * timing or bank state (canIssue), so a caller whose own bank-state
     * table drifted fails at its first ACT to an open bank or RD/WR to
     * a closed one. Notifies the observer.
     */
    void issue(Command cmd, const Address &addr, Cycle at);

    /** True iff the addressed bank has an open row. */
    bool isOpen(const Address &addr) const;

    /** Cycle at which the read data burst completes for a RD at `at`. */
    Cycle readDataAt(Cycle at) const { return at + timing_.tCL + timing_.tBL; }

    /** Cycle at which the write burst completes for a WR at `at`. */
    Cycle writeDataAt(Cycle at) const
    {
        return at + timing_.writeBurstEnd();
    }

    /** Register the command-stream observer (replaces any previous). */
    void setObserver(Observer observer) { observer_ = std::move(observer); }

  private:
    struct BankState
    {
        bool open = false;
        Cycle nextAct = 0;
        Cycle nextPre = 0;
        Cycle nextRdWr = 0;
    };

    struct GroupState
    {
        Cycle nextAct = 0;  // tRRD_L.
        Cycle nextRd = 0;   // tCCD_L / tWTR_L.
        Cycle nextWr = 0;   // tCCD_L.
    };

    /**
     * Fixed-capacity ring of the rank's most recent ACT times for tFAW
     * tracking. Replaces a std::deque: no allocation, and the only query
     * the timing rules need (the Nth-most-recent ACT) is an index.
     */
    struct ActWindow
    {
        static constexpr std::size_t capacity = 8;

        std::array<Cycle, capacity> slots{};
        std::uint8_t head = 0;  ///< Index of the oldest entry.
        std::uint8_t count = 0; ///< Live entries, <= capacity.

        void push(Cycle at)
        {
            slots[(head + count) % capacity] = at;
            if (count < capacity)
                ++count;
            else
                head = static_cast<std::uint8_t>((head + 1) % capacity);
        }

        std::size_t size() const { return count; }

        /** The i-th entry counting from the oldest (0-based). */
        Cycle nthOldest(std::size_t i) const
        {
            return slots[(head + i) % capacity];
        }
    };

    struct RankState
    {
        Cycle nextAct = 0;      // tRRD_S.
        Cycle nextRd = 0;       // tCCD_S / tWTR_S / turnaround.
        Cycle nextWr = 0;       // tCCD_S / turnaround.
        Cycle nextAny = 0;      // tRFC after REF.
        ActWindow actWindow;    // Last ACT times for tFAW.
    };

    const BankState &bank(const Address &addr) const;
    BankState &bank(const Address &addr);
    const GroupState &group(const Address &addr) const;
    GroupState &group(const Address &addr);

    Cycle earliestPre(const Address &addr) const;

    Organization org_;
    TimingSpec timing_;
    std::vector<BankState> banks_;
    std::vector<GroupState> groups_;
    std::vector<RankState> ranks_;
    Observer observer_;
    Cycle lastIssue_ = -1;
};

} // namespace rowhammer::dram

#endif // ROWHAMMER_DRAM_DEVICE_HH
