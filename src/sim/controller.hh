/**
 * @file
 * Cycle-accurate DRAM memory controller per the paper's Table 6 system
 * configuration: 64-entry read/write request queues, FR-FCFS scheduling,
 * open-page row policy, watermark-based write draining, periodic
 * auto-refresh, and a mitigation hook that injects targeted victim-row
 * refreshes and scales the refresh rate.
 *
 * FR-FCFS runs over per-bank queues: each queue keeps its requests per
 * flat bank in arrival order, stamped with a controller-wide arrival
 * number, plus a count of each bank's requests to its open row. A
 * scheduling pass asks the device one question per bank, about that
 * bank's oldest candidate, instead of one per queued request.
 *
 * The engine is event-driven. The scan that decides a cycle also
 * records when its outcome can next change: for each candidate command
 * it finds not yet legal, the cycle the device allows it
 * (Device::earliest), and otherwise the refresh timer and each open
 * row's idle-close deadline. After a cycle in which nothing issued, the
 * controller jumps to the earliest of those. A wake no later than the
 * next state change is always exact: the per-cycle reference
 * (Config::eventDriven = false) runs the same scan every cycle, and the
 * event engine only skips cycles. The golden regression tests and the
 * saturated System test pin the two against each other.
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
    /** The constructor fatal()s unless readQueueSize >= 1 and
     *  0 <= writeLowWatermark < writeHighWatermark <= writeQueueSize:
     *  otherwise no read could ever be accepted or served. */
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
         *  engine; identical results. The golden tests and
         *  System.FastForwardMatchesLockstepSaturated compare the two. */
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

    /** A queued request and its arrival number: the smaller, the
     *  older (one controller-wide counter stamps both queues). */
    struct Entry
    {
        std::uint64_t seq;
        Request request;
    };

    /**
     * One request queue (reads or writes), split by flat bank. Only two
     * requests per bank can be FR-FCFS candidates: its oldest hit on
     * the open row, or, in a bank without hits, its front. A bank with
     * hits is protected: its conflicting requests, and victim refreshes
     * that would close its row, wait until the hits drain.
     */
    struct Queue
    {
        /** Per flat bank: queued requests in arrival order. */
        std::vector<std::vector<Entry>> banks;
        /** Per flat bank: queued requests to that bank's open row
         *  (kept exact by enqueue(), issue() and the issued hit). */
        std::vector<int> hits;
        int size = 0;
    };

    /**
     * Issue cmd to addr at now_. Every command goes through here, so
     * openRow_ and both queues' hit counts always match the device: ACT
     * recounts the bank's hits, PRE zeroes them, and RD, WR and REF
     * (which needs every bank closed) leave them alone.
     */
    void issue(dram::Command cmd, const dram::Address &addr);

    void observeActivate(const dram::Address &addr);
    /** Queue the mitigation's requested victim refreshes. */
    void queueVictims();
    /** Device address of a mitigation victim reference. */
    dram::Address victimAddress(const mitigation::VictimRef &ref) const;

    /** One cycle of decision logic at now_. Sets acted_, and sets wake_
     *  to the earliest later cycle at which a branch it reached could
     *  decide differently. */
    void stepAt();
    void wakeBy(dram::Cycle at) { wake_ = std::min(wake_, at); }
    /** True iff cmd to addr can issue at now_; otherwise lowers wake_
     *  to the cycle the device allows it. The scan picks each candidate
     *  from openRow_, so the device answers one timing question
     *  (Device::earliest). Every legality question goes through here,
     *  so each blocked candidate sets a wake. */
    bool legalOrWake(dram::Command cmd, const dram::Address &addr);

    bool tryIssueRefresh();
    bool tryCloseIdleRow();
    bool tryIssueVictimRefresh();
    bool tryIssueDemand();

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

    /** No state can change before this cycle: stepAt() computes it,
     *  advanceTo() jumps to it, and enqueue() and setMitigation() reset
     *  it to 0. The per-cycle reference ignores it. */
    dram::Cycle wake_ = 0;
    /** Whether the current stepAt() changed any state. */
    bool acted_ = false;

    Queue reads_;
    Queue writes_;
    /** Arrival number of the next enqueued request. */
    std::uint64_t nextSeq_ = 0;
    /** Open row per flat bank (-1 = closed), the controller's only
     *  source of bank state. issue() is its only writer, so it mirrors
     *  the device; Device::issue panics on the first ACT or RD/WR that
     *  a drifted entry would let through. */
    std::vector<int> openRow_;
    /** Last cycle each flat bank was used (for idle-row closing). */
    std::vector<dram::Cycle> bankLastUse_;
    std::deque<VictimRefresh> victimQueue_;
    /** Reads whose data is on its way: a min-heap keyed by cycle. */
    std::vector<Completion> completions_;
    /** Returned reads, in return order, until drainCompleted(). */
    std::vector<Completion> completed_;

    /** Reusable scratch for mitigation victim requests. */
    std::vector<mitigation::VictimRef> victimScratch_;

    ControllerStats stats_;
};

} // namespace rowhammer::sim

#endif // ROWHAMMER_SIM_CONTROLLER_HH
