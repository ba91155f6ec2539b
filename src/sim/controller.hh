/**
 * @file
 * Cycle-accurate DRAM memory controller per the paper's Table 6 system
 * configuration: 64-entry read/write request queues, FR-FCFS scheduling,
 * open-page row policy, watermark-based write draining, periodic
 * auto-refresh, and a mitigation hook that injects targeted victim-row
 * refreshes and scales the refresh rate.
 *
 * The engine is event-driven: after a cycle in which no command issued,
 * the controller computes the earliest future cycle at which anything
 * can change (next auto-refresh, the blocked command's timing expiry,
 * FR-FCFS candidate legality, row-idle-close deadline) and advances to
 * it in one jump.
 * The decision logic itself is unchanged from the per-cycle engine, so
 * command streams and statistics are cycle-for-cycle identical; set
 * Config::eventDriven = false to force the reference per-cycle walk
 * (the golden regression tests pin the two against each other).
 */

#ifndef ROWHAMMER_SIM_CONTROLLER_HH
#define ROWHAMMER_SIM_CONTROLLER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dram/device.hh"
#include "mitigation/mitigation.hh"
#include "sim/request.hh"

namespace rowhammer::sim
{

/** Controller statistics for performance and overhead metrics. */
struct ControllerStats
{
    std::int64_t cycles = 0;
    std::int64_t readsServed = 0;
    std::int64_t writesServed = 0;
    std::int64_t demandActs = 0;
    std::int64_t autoRefreshes = 0;
    std::int64_t mitigationRefreshes = 0;
    /** Device cycles consumed by mitigation-induced work: victim-row
     *  refreshes (tRC each) plus auto-refresh time beyond the baseline
     *  refresh rate. */
    double mitigationBusyCycles = 0.0;
    /** Reads enqueue() refused on a full read queue; always 0 under
     *  core::System, which checks readQueueSpace() first. */
    std::int64_t readQueueFullEvents = 0;
    /** Best-effort posted writes (LLC writebacks) dropped because the
     *  write queue was full at enqueue (see notePostedWriteDrop()).
     *  Demand writes are never dropped: the System back-pressures the
     *  core instead. */
    std::int64_t droppedWritebacks = 0;
    /** Geometry's rank count (set by the controller); busy time
     *  accumulates per rank, so overhead normalizes by rank-time. */
    int ranks = 1;
    /** Channels these statistics aggregate over (1 for a single
     *  controller; core::System sums per-channel stats with
     *  addChannel()). Overhead normalizes by channel-time the same
     *  way it normalizes by rank-time. */
    int channels = 1;

    /** Paper Figure 10a metric: percent of DRAM time spent on the
     *  mitigation mechanism. */
    double bandwidthOverheadPercent() const
    {
        if (cycles == 0)
            return 0.0;
        return 100.0 * mitigationBusyCycles /
            (static_cast<double>(cycles) *
             static_cast<double>(std::max(1, ranks)) *
             static_cast<double>(std::max(1, channels)));
    }

    /**
     * Fold another channel's statistics into this aggregate: counters
     * and busy time sum, `cycles` stays wall-clock (all channels
     * advance in lockstep, so it takes the max), and `channels`
     * accumulates so bandwidthOverheadPercent() keeps normalizing by
     * total DRAM time (cycles x ranks x channels).
     */
    void addChannel(const ControllerStats &other)
    {
        cycles = std::max(cycles, other.cycles);
        readsServed += other.readsServed;
        writesServed += other.writesServed;
        demandActs += other.demandActs;
        autoRefreshes += other.autoRefreshes;
        mitigationRefreshes += other.mitigationRefreshes;
        mitigationBusyCycles += other.mitigationBusyCycles;
        readQueueFullEvents += other.readQueueFullEvents;
        droppedWritebacks += other.droppedWritebacks;
        ranks = std::max(ranks, other.ranks);
        channels += other.channels;
    }
};

/**
 * One-channel memory controller. Drive with advanceTo() (event-driven
 * jumps) or the tick() shim, one device clock cycle at a time; enqueue
 * requests any time (enqueue returns false when the target queue is
 * full, modeling back-pressure).
 */
class Controller
{
  public:
    struct Config
    {
        int readQueueSize = 64;
        int writeQueueSize = 64;
        int writeHighWatermark = 48;
        int writeLowWatermark = 16;
        /** Idle cycles after which an open row is closed (open-page
         *  policy with timeout). */
        int rowIdleCloseCycles = 200;
        /** Next-event jumps (default). false = reference per-cycle
         *  engine; identical results, used by the golden tests. */
        bool eventDriven = true;
    };

    Controller(dram::Organization org, dram::TimingSpec timing);
    Controller(dram::Organization org, dram::TimingSpec timing,
               Config config);
    /** With an explicit address-translation spec (default: linear). */
    Controller(dram::Organization org, dram::TimingSpec timing,
               Config config, dram::AddressFunctions functions);

    /** Attach a mitigation mechanism (nullptr = none). Not owned. */
    void setMitigation(mitigation::Mitigation *mechanism);

    /** Current cycle. */
    dram::Cycle now() const { return now_; }

    const ControllerStats &stats() const { return stats_; }
    const dram::Device &device() const { return device_; }
    /** Mutable device access (e.g. to attach a command observer). */
    dram::Device &device() { return device_; }
    const AddressMapper &mapper() const { return mapper_; }

    /** Number of free read-queue entries. */
    [[nodiscard]] int readQueueSpace() const;

    /** Number of free write-queue entries. */
    [[nodiscard]] int writeQueueSpace() const;

    /**
     * Conservative lower bound on the earliest cycle >= now() at which
     * a read's data can return, assuming no further enqueues.
     * Completions are created either at enqueue time (write-forwarded
     * reads, ready the next cycle) or when a RD command issues — at
     * the earliest device().readDataAt(now()) for an already-queued
     * read, and readDataAt is monotone in the issue cycle — so with an
     * empty read queue and completion heap nothing can reach the CPU
     * before the next enqueue. core::System's epoch engine runs the CPU
     * side ahead strictly below the minimum of these bounds and
     * re-shrinks the horizon after each read enqueue (see
     * docs/ARCHITECTURE.md, "Threading model").
     */
    dram::Cycle cpuInteractionBound() const;

    /**
     * Count a best-effort posted write that the owner chose to drop on
     * back-pressure instead of retrying (core::System's LLC writebacks
     * are fire-and-forget; the dirty data vanishes but the simulation
     * keeps the event observable via ControllerStats).
     */
    void notePostedWriteDrop() { ++stats_.droppedWritebacks; }

    /**
     * Accept a request; returns false when the queue is full. The
     * result must not be ignored: a dropped false silently loses a
     * demand access (exactly PR 8's System::sendFromCore bug) — retry
     * under back-pressure or account the drop via notePostedWriteDrop().
     */
    [[nodiscard]] bool enqueue(Request request);

    /** True iff no demand request is queued or in flight. */
    [[nodiscard]] bool idle() const;

    /** Pass the token of each read whose data returned since the last
     *  call to `fn(coreId, slot)`, in return order, then forget them. */
    template <class Fn>
    void drainCompleted(Fn &&fn)
    {
        for (const Completion &done : completed_)
            fn(done.coreId, done.slot);
        completed_.clear();
    }

    /** Advance one device clock cycle (shim over advanceTo). */
    void tick() { advanceTo(now_ + 1); }

    /**
     * Advance to `target`, jumping over stretches where nothing can
     * happen. Equivalent to calling tick() target - now() times.
     */
    void advanceTo(dram::Cycle target);

  private:
    /** A read's token and the cycle its data returns. */
    struct Completion
    {
        dram::Cycle at;
        int coreId;
        std::uint32_t slot;

        bool operator>(const Completion &o) const { return at > o.at; }
    };

    /** A pending mitigation-issued victim-row refresh. */
    struct VictimRefresh
    {
        dram::Address addr;
        bool activated = false;
    };

    void observeActivate(const dram::Address &addr);
    /** Queue the mitigation's requested victim refreshes. */
    void queueVictims();
    /** Device address of a mitigation victim reference. */
    dram::Address victimAddress(const mitigation::VictimRef &ref) const;

    /** One cycle of decision logic at now_; sets acted_. */
    void stepAt();
    /**
     * Earliest cycle >= now_ at which any state can change, given that
     * the cycle just executed did nothing. Mirrors the priority chain
     * of stepAt() branch for branch.
     */
    dram::Cycle computeWake() const;
    dram::Cycle demandWake() const;
    dram::Cycle closeWake() const;

    /**
     * Refresh the per-bank open-row snapshot (openRowByBank_). Valid
     * until the next command issues; the scheduling passes read it
     * instead of querying the device once per queue entry.
     */
    void refreshOpenRows() const;

    /**
     * Recompute the protected-bank bitmask: banks whose open row still
     * has queued row-hit requests (those must not be precharged by
     * younger conflicting requests or victim refreshes). Also refreshes
     * the open-row snapshot. Skipped when the mask already holds the
     * result for these arguments: stepAt() and enqueue() invalidate it,
     * and no command issues between its first and last use within one
     * stepAt() and the computeWake() that follows.
     */
    void computeProtectedBanks(bool include_reads,
                               bool include_writes) const;
    bool protectedBank(int flat_bank) const
    {
        return (protectedMask_[static_cast<std::size_t>(flat_bank) / 64] >>
                (static_cast<std::size_t>(flat_bank) % 64)) &
            1ULL;
    }

    bool tryIssueRefresh();
    bool tryCloseIdleRow();
    bool tryIssueVictimRefresh();
    bool tryIssueDemand();
    /**
     * Whether the (flat bank, command slot) pair was already seen by the
     * current FR-FCFS scan, marking it seen. Slot 0 is the row-hit
     * column command, slot 1 the PRE or ACT a non-hit needs. Device
     * legality and earliest-issue cycles depend only on rank,
     * bank-group and bank state, so one answer serves every request to
     * that bank. Each scan clears bankSeen_ first.
     */
    bool seenBefore(int flat_bank, bool row_hit) const
    {
        const auto slot = static_cast<std::size_t>(flat_bank) * 2 +
            (row_hit ? 0 : 1);
        const bool seen = bankSeen_[slot] != 0;
        bankSeen_[slot] = 1;
        return seen;
    }

    dram::Organization org_;
    dram::Device device_;
    AddressMapper mapper_;
    Config config_;
    mitigation::Mitigation *mitigation_ = nullptr;

    dram::Cycle now_ = 0;
    dram::Cycle nextRefreshAt_ = 0;
    std::uint64_t refIndex_ = 0;
    bool refreshPending_ = false;
    /** Ranks still owed a REF in the pending refresh burst (REF is a
     *  per-rank command; every rank gets one per boundary). */
    int refreshRanksLeft_ = 0;
    bool drainingWrites_ = false;

    /** No state can change before this cycle (event-engine cache);
     *  invalidated by enqueue() and setMitigation(). */
    dram::Cycle wake_ = 0;
    /** Whether the current stepAt() changed any state. */
    bool acted_ = false;

    std::deque<Request> readQueue_;
    std::deque<Request> writeQueue_;
    /** Last cycle each flat bank was used (for idle-row closing). */
    std::vector<dram::Cycle> bankLastUse_;
    std::deque<VictimRefresh> victimQueue_;
    /** Reads whose data is on its way: a min-heap keyed by cycle. */
    std::vector<Completion> completions_;
    /** Returned reads, in return order, until drainCompleted(). */
    std::vector<Completion> completed_;

    /** Reusable scratch for mitigation victim requests. */
    std::vector<mitigation::VictimRef> victimScratch_;
    /** Reusable protected-bank bitmask (one bit per flat bank). */
    mutable std::vector<std::uint64_t> protectedMask_;
    /** computeProtectedBanks() arguments protectedMask_ holds
     *  (reads | writes << 1), or -1 when stale. */
    mutable int protectedKey_ = -1;
    /** Per-scan (flat bank, command slot) flags; see seenBefore(). */
    mutable std::vector<std::uint8_t> bankSeen_;
    /** Open row per flat bank (-1 = closed); see refreshOpenRows(). */
    mutable std::vector<int> openRowByBank_;

    ControllerStats stats_;
};

} // namespace rowhammer::sim

#endif // ROWHAMMER_SIM_CONTROLLER_HH
