/**
 * @file
 * Full-system model per the paper's Table 6: N trace-driven cores at
 * 4 GHz sharing a 16 MB LLC and a DDR4 memory system of one or more
 * channels (Table 6 itself is single-channel), with an optional
 * RowHammer mitigation mechanism attached to each memory controller.
 * This is the simulation harness behind Figure 10.
 *
 * Each channel is one independent sim::Controller; the active
 * dram::AddressFunctions decode a channel index from every physical
 * address (see sim::AddressMapper) and the System routes the request
 * to that channel's controller.
 *
 * Two execution engines produce bit-identical results: the reference
 * lockstep engine (step(): every controller ticks one device cycle,
 * then the CPU side runs) and the epoch engine (advanceEpoch(): the
 * CPU side runs ahead up to the next cycle at which any controller
 * can return a read to it, and each channel catches up only at
 * request-enqueue points and at the epoch's end; while every core is
 * stalled the engine skips the CPU ticks and only advances the
 * channels). See docs/ARCHITECTURE.md, "Threading model", for the
 * determinism argument. SystemConfig::lockstep forces the reference
 * engine; it does not affect results, so it is not part of the
 * serialized config.
 */

#ifndef ROWHAMMER_CORE_SYSTEM_HH
#define ROWHAMMER_CORE_SYSTEM_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "mitigation/mitigation.hh"
#include "sim/controller.hh"
#include "workload/synthetic.hh"

namespace rowhammer::core
{

/** System configuration (defaults = the paper's Table 6). */
struct SystemConfig
{
    int cores = 8;
    double cpuGhz = 4.0;
    int issueWidth = 4;
    int windowSize = 128;
    std::int64_t llcBytes = 16LL * 1024 * 1024;
    int llcWays = 8;
    int lineBytes = 64;
    int llcHitLatencyCpu = 20; ///< CPU cycles.
    int mshrPerCore = 16;
    /** Memory-system geometry; organization.channels controllers are
     *  instantiated (Table 6 default: 1). */
    dram::Organization organization = dram::table6Organization();
    dram::TimingSpec timing = dram::ddr4_2400();
    /** Physical-address translation (default: the linear layout). */
    dram::AddressFunctions addressFunctions;
    /** Per-channel memory-controller parameters (queue sizes and
     *  watermarks affect results and are serialized; the eventDriven
     *  engine toggle is execution-only and is not). */
    sim::Controller::Config controller;

    /** Ignored: a System always runs on the calling thread. Kept only
     *  because the benchmark driver still assigns it; its next change
     *  drops that assignment and this member. */
    int threads = 1;
    /** Force the reference lockstep engine (tests pin the epoch engine
     *  against it). Execution-only; not serialized. */
    bool lockstep = false;

    /** The wire schema (run-description bytes; see
     *  util/serialize.hh for the stability contract). */
    template <class A, class S>
    static void wire(A &a, S &s)
    {
        a.i64(s.cores);
        a.f64(s.cpuGhz);
        a.i64(s.issueWidth);
        a.i64(s.windowSize);
        a.i64(s.llcBytes);
        a.i64(s.llcWays);
        a.i64(s.lineBytes);
        a.i64(s.llcHitLatencyCpu);
        a.i64(s.mshrPerCore);
        dram::Organization::wire(a, s.organization);
        dram::TimingSpec::wire(a, s.timing);
        dram::AddressFunctions::wire(a, s.addressFunctions);
        // Controller queue geometry affects results; the eventDriven
        // engine toggle (and the threads/lockstep knobs above) do not,
        // and stay off the wire.
        a.i64(s.controller.readQueueSize);
        a.i64(s.controller.writeQueueSize);
        a.i64(s.controller.writeHighWatermark);
        a.i64(s.controller.writeLowWatermark);
        a.i64(s.controller.rowIdleCloseCycles);
    }
};

/** Results of one system run. */
struct SystemResult
{
    std::vector<cpu::CoreStats> coreStats;
    cpu::CacheStats llcStats;
    sim::ControllerStats memStats;
    std::int64_t cpuCycles = 0;

    /** Aggregate LLC misses per kilo-instruction across cores. */
    double mpki() const;
};

/**
 * One simulated machine instance. Construct, optionally attach a
 * mitigation, then run() to completion.
 */
class System
{
  public:
    /**
     * @param config Machine parameters.
     * @param apps One application profile per core (size must equal
     *     config.cores).
     * @param seed Seed for the synthetic traces.
     */
    System(SystemConfig config,
           const std::vector<workload::AppProfile> &apps,
           std::uint64_t seed);

    /**
     * Attach one mitigation mechanism per channel (size must equal
     * organization.channels; entries not owned, may be nullptr, and
     * never shared: mechanisms keep per-flat-bank state).
     */
    void setMitigations(
        const std::vector<mitigation::Mitigation *> &mechanisms);

    /** Number of memory channels (== controllers). */
    int channels() const { return static_cast<int>(controllers_.size()); }

    /** Channel `i`'s memory controller (for tests and observers). */
    sim::Controller &channelController(int i)
    {
        return *controllers_[static_cast<std::size_t>(i)];
    }

    /**
     * Run until every core has retired at least
     * `instructions_per_core`, with `warmup_instructions` retired first
     * (caches warm; stats reset afterwards).
     */
    SystemResult run(std::int64_t instructions_per_core,
                     std::int64_t warmup_instructions = 0);

    /**
     * Reference lockstep engine: advance every controller one device
     * clock cycle plus the corresponding CPU cycles (the 4 GHz :
     * device-clock ratio is accumulated fractionally); each channel's
     * returned reads reach their cores right after its cycle. Exposed
     * for microbenchmarks and custom drivers.
     */
    void step();

    /**
     * Epoch engine: advance the whole system by one epoch — up to the
     * earliest cycle at which any controller can return a read's data
     * (or the epoch cap). Falls back to a single step() whenever one
     * is due; only step() delivers reads to the cores, in canonical
     * channel order, and results are bit-identical to the lockstep
     * engine. `stop` is polled once per device step (like run()'s
     * retirement check in lockstep mode) and ends the epoch early.
     * Once a CPU tick makes no progress, the following device steps
     * only advance the channels and count idle CPU cycles, until a
     * channel's queue space changes or an LLC hit is due.
     */
    void advanceEpoch(const std::function<bool()> &stop = {});

  private:
    struct PendingHit
    {
        std::int64_t at; ///< CPU cycle of completion.
        int coreId;
        std::uint32_t slot;
    };

    bool sendFromCore(int core_id, std::uint64_t addr, bool write,
                      std::uint32_t slot);
    /** One CPU cycle; false iff no core progressed (Core::tick) and no
     *  LLC hit completed. */
    bool cpuTick();
    /** CPU cycles owed to one device step (budget accumulation). */
    int takeCpuTicks();
    /** Advance every channel to `target`; returns the free read- plus
     *  write-queue space summed over channels. */
    int syncChannels(dram::Cycle target);
    /** Furthest device cycle any channel has reached. */
    dram::Cycle deviceNow() const;
    /** Per-channel stats folded into one aggregate (see
     *  ControllerStats::addChannel). */
    sim::ControllerStats aggregateMemStats() const;

    SystemConfig config_;
    /** One memory controller per channel. */
    std::vector<std::unique_ptr<sim::Controller>> controllers_;
    /** Routing copy of the active address mapping (each controller
     *  compiles its own identical instance for decode-at-enqueue). */
    sim::AddressMapper mapper_;
    cpu::Cache llc_;
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    /** Reads each core has in flight to memory (its MSHRs). */
    std::vector<int> mshrInUse_;
    /** LLC read hits in completion order: every hit takes
     *  llcHitLatencyCpu and cpuCycle_ never decreases. */
    std::deque<PendingHit> hitQueue_;
    std::int64_t cpuCycle_ = 0;
    /** CPU-to-device clock ratio, e.g. 4 GHz vs 1.2 GHz = 10:3. */
    double cpuRatio_ = 1.0;
    /** Fractional CPU cycles owed to the next step(). */
    double cpuBudget_ = 0.0;

    /**
     * Cycle a channel must be advanced to before the CPU side may
     * inspect or enqueue into it — the position the lockstep engine
     * would have it at when the current CPU device-step's requests
     * land. Maintained by both engines; sendFromCore syncs on demand.
     */
    dram::Cycle chanSyncTarget_ = 0;
    /** Current epoch's exclusive horizon. Shrinks when a read is
     *  enqueued. */
    dram::Cycle epochHorizon_ = 0;
    /** Upper bound on epoch length, so an idle memory system still
     *  surfaces run()'s non-convergence guard periodically. */
    static constexpr dram::Cycle kEpochCapCycles = 65536;
};

} // namespace rowhammer::core

#endif // ROWHAMMER_CORE_SYSTEM_HH
