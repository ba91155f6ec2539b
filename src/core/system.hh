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
 * One engine, step(), advances the whole system one device cycle:
 * every controller ticks and hands its returned reads to their cores,
 * then the CPU side runs the cycle's share of CPU cycles. While every
 * core is stalled and nothing it waits on can change, step() counts
 * those CPU cycles instead of running them. See docs/ARCHITECTURE.md,
 * "Threading model", for why that is exact. SystemConfig::lockstep
 * turns the fast-forward off; it does not affect results, so it is not
 * part of the serialized config.
 */

#ifndef ROWHAMMER_CORE_SYSTEM_HH
#define ROWHAMMER_CORE_SYSTEM_HH

#include <deque>
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
    /** Run every CPU cycle, even while the CPU side is idle: the plain
     *  stepping the tests pin step()'s idle fast-forward against.
     *  Execution-only; not serialized. */
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
     * Advance the system one device clock cycle: every controller ticks
     * and hands its returned reads to their cores, in channel order,
     * then the CPU side runs the corresponding CPU cycles (the 4 GHz :
     * device-clock ratio is accumulated fractionally). Once a CPU cycle
     * makes no progress, later steps only count their CPU cycles until
     * a read returns, a queue gains space or an LLC hit is due (unless
     * SystemConfig::lockstep). run() calls this; exposed for
     * microbenchmarks and custom drivers.
     */
    void step();

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
    /** Free read- plus write-queue space summed over channels. */
    int queueSpace() const;
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
    /** The last CPU cycle run made no progress (never set under
     *  SystemConfig::lockstep): step() may fast-forward. */
    bool idle_ = false;
    /** queueSpace() when the CPU side went idle. */
    int idleSpace_ = 0;
};

} // namespace rowhammer::core

#endif // ROWHAMMER_CORE_SYSTEM_HH
