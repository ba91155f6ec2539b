#include "system.hh"

#include <cmath>
#include <string>

#include "util/logging.hh"

namespace rowhammer::core
{

double
SystemResult::mpki() const
{
    std::int64_t retired = 0;
    for (const auto &c : coreStats)
        retired += c.retired;
    if (retired == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(llcStats.misses) /
        static_cast<double>(retired);
}

System::System(SystemConfig config,
               const std::vector<workload::AppProfile> &apps,
               std::uint64_t seed)
    : config_(config),
      mapper_(config.organization, config.addressFunctions),
      llc_(config.llcBytes, config.llcWays, config.lineBytes)
{
    if (static_cast<int>(apps.size()) != config_.cores)
        util::fatal("System: one application profile per core required");
    // Without an MSHR no miss is ever accepted, and a CPU clock that is
    // not a positive finite rate never yields (or never stops yielding)
    // CPU cycles: either way run() would spin forever.
    if (config_.mshrPerCore < 1) {
        util::fatal("System: mshrPerCore must be >= 1, got " +
                    std::to_string(config_.mshrPerCore));
    }
    if (!std::isfinite(config_.cpuGhz) || config_.cpuGhz <= 0.0) {
        util::fatal("System: cpuGhz must be finite and > 0, got " +
                    std::to_string(config_.cpuGhz));
    }

    for (int ch = 0; ch < config_.organization.channels; ++ch) {
        controllers_.push_back(std::make_unique<sim::Controller>(
            config_.organization, config_.timing, config_.controller,
            config_.addressFunctions));
    }

    const double device_ghz = 1.0 / config_.timing.tCKns;
    cpuRatio_ = config_.cpuGhz / device_ghz;

    util::Rng seeder(seed);
    mshrInUse_.assign(static_cast<std::size_t>(config_.cores), 0);
    for (int i = 0; i < config_.cores; ++i) {
        traces_.push_back(std::make_unique<workload::SyntheticTrace>(
            apps[static_cast<std::size_t>(i)], seeder.split(
                static_cast<std::uint64_t>(i))()));
        const int core_id = i;
        cores_.push_back(std::make_unique<cpu::Core>(
            *traces_.back(),
            [this, core_id](std::uint64_t addr, bool write,
                            std::uint32_t slot) {
                return sendFromCore(core_id, addr, write, slot);
            },
            config_.issueWidth, config_.windowSize));
    }
}

void
System::setMitigations(
    const std::vector<mitigation::Mitigation *> &mechanisms)
{
    if (static_cast<int>(mechanisms.size()) != channels()) {
        util::fatal("System::setMitigations: one mechanism per channel "
                    "required");
    }
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch)
        controllers_[ch]->setMitigation(mechanisms[ch]);
}

sim::ControllerStats
System::aggregateMemStats() const
{
    sim::ControllerStats stats = controllers_.front()->stats();
    for (std::size_t ch = 1; ch < controllers_.size(); ++ch)
        stats.addChannel(controllers_[ch]->stats());
    return stats;
}

bool
System::sendFromCore(int core_id, std::uint64_t addr, bool write,
                     std::uint32_t slot)
{
    // Wrap addresses into the memory system's capacity.
    const auto capacity = static_cast<std::uint64_t>(
        config_.organization.systemBytes());
    addr %= capacity;

    // LLC hits are served entirely by the cache: memory-queue state
    // must not reject them (the seed gated every access, hits
    // included, on the demand channel's read queue).
    if (llc_.contains(addr)) {
        (void)llc_.access(addr, write); // Guaranteed hit.
        if (!write) {
            hitQueue_.push_back(PendingHit{
                cpuCycle_ + config_.llcHitLatencyCpu, core_id, slot});
        }
        return true;
    }

    const int ch = mapper_.decodeChannel(addr);
    sim::Controller &controller =
        *controllers_[static_cast<std::size_t>(ch)];

    // Back-pressure checks before touching LLC state, so a rejected
    // access retries without a double fill. Each access type gates on
    // its own queue: the seed gated writes on the READ queue and then
    // dropped them silently when the write queue was full.
    if (!write && mshrInUse_[static_cast<std::size_t>(core_id)] >=
                      config_.mshrPerCore) {
        return false;
    }
    const bool has_space = write ? controller.writeQueueSpace() > 0
                                 : controller.readQueueSpace() > 0;
    if (!has_space)
        return false;

    const cpu::CacheAccessResult access = llc_.access(addr, write);

    // The demand request enqueues first — its slot was just checked,
    // and a same-channel writeback must not steal it — so failure here
    // is a logic error, never back-pressure.
    sim::Request request;
    request.addr = addr;
    if (write) {
        request.type = sim::Request::Type::Write;
        if (!controller.enqueue(request)) {
            util::fatal("System::sendFromCore: demand write rejected "
                        "despite free write-queue slot");
        }
    } else {
        request.type = sim::Request::Type::Read;
        request.coreId = core_id;
        request.slot = slot;
        ++mshrInUse_[static_cast<std::size_t>(core_id)];
        if (!controller.enqueue(request)) {
            util::fatal("System::sendFromCore: demand read rejected "
                        "despite free read-queue slot");
        }
    }

    // Dirty victim goes back to memory (posted; best effort if the
    // write queue is momentarily full, and a drop is counted in
    // ControllerStats::droppedWritebacks). The victim line routes by
    // its own address, which may be a different channel.
    if (access.writeback) {
        sim::Request wb;
        wb.addr = *access.writeback;
        wb.type = sim::Request::Type::Write;
        auto &victim_controller = *controllers_[static_cast<std::size_t>(
            mapper_.decodeChannel(wb.addr))];
        if (!victim_controller.enqueue(wb))
            victim_controller.notePostedWriteDrop();
    }
    return true;
}

bool
System::cpuTick()
{
    ++cpuCycle_;
    bool progress = false;
    while (!hitQueue_.empty() && hitQueue_.front().at <= cpuCycle_) {
        const PendingHit &hit = hitQueue_.front();
        cores_[static_cast<std::size_t>(hit.coreId)]->complete(hit.slot);
        hitQueue_.pop_front();
        progress = true;
    }
    for (auto &c : cores_)
        progress |= c->tick();
    return progress;
}

int
System::takeCpuTicks()
{
    int ticks = 0;
    for (cpuBudget_ += cpuRatio_; cpuBudget_ >= 1.0; cpuBudget_ -= 1.0)
        ++ticks;
    return ticks;
}

int
System::queueSpace() const
{
    int space = 0;
    for (const auto &controller : controllers_)
        space += controller->readQueueSpace() + controller->writeQueueSpace();
    return space;
}

void
System::step()
{
    bool returned = false;
    for (auto &controller : controllers_) {
        controller->tick();
        controller->drainCompleted([&](int core, std::uint32_t slot) {
            --mshrInUse_[static_cast<std::size_t>(core)];
            cores_[static_cast<std::size_t>(core)]->complete(slot);
            returned = true;
        });
    }
    const int ticks = takeCpuTicks();
    // An idle CPU side repeats its last tick until a read returns, a
    // queue gains space (queue space only grows while no core enqueues,
    // so an unchanged total means no queue changed) or an LLC hit
    // completes: until then, count the cycles instead of running them.
    if (idle_ && !returned && queueSpace() == idleSpace_ &&
        (hitQueue_.empty() || hitQueue_.front().at > cpuCycle_ + ticks)) {
        cpuCycle_ += ticks;
        for (auto &c : cores_)
            c->idleCycles(ticks);
        return;
    }
    bool progress = true;
    for (int i = 0; i < ticks; ++i)
        progress = cpuTick();
    idle_ = !progress && !config_.lockstep;
    if (idle_)
        idleSpace_ = queueSpace();
}

SystemResult
System::run(std::int64_t instructions_per_core,
            std::int64_t warmup_instructions)
{
    auto all_retired = [&](const std::vector<std::int64_t> &targets) {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (cores_[i]->stats().retired < targets[i])
                return false;
        }
        return true;
    };

    auto run_until = [&](const std::vector<std::int64_t> &targets) {
        cpuBudget_ = 0.0;
        // Guard against pathological configurations. Each step()
        // advances every channel by one device cycle.
        const std::int64_t max_device_cycles =
            2LL * 1000 * 1000 * 1000;
        for (std::int64_t steps = 1; !all_retired(targets); ++steps) {
            step();
            if (steps > max_device_cycles) {
                util::fatal("System::run: simulation did not converge "
                            "(mitigation overhead may be saturating "
                            "a DRAM channel)");
            }
        }
    };

    if (warmup_instructions > 0) {
        run_until(std::vector<std::int64_t>(cores_.size(),
                                            warmup_instructions));
    }

    // Snapshot post-warmup counters and report deltas.
    std::vector<cpu::CoreStats> base_core;
    for (const auto &c : cores_)
        base_core.push_back(c->stats());
    const cpu::CacheStats base_llc = llc_.stats();
    const sim::ControllerStats base_mem = aggregateMemStats();
    const std::int64_t base_cpu = cpuCycle_;

    // Measure exactly instructions_per_core beyond each core's actual
    // post-warmup count (warmup may overshoot by a few instructions).
    std::vector<std::int64_t> targets;
    for (const auto &c : base_core)
        targets.push_back(c.retired + instructions_per_core);
    run_until(targets);

    SystemResult result;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cpu::CoreStats delta = cores_[i]->stats();
        delta.cycles -= base_core[i].cycles;
        delta.retired -= base_core[i].retired;
        delta.memReads -= base_core[i].memReads;
        delta.memWrites -= base_core[i].memWrites;
        result.coreStats.push_back(delta);
    }
    result.llcStats = llc_.stats();
    result.llcStats.accesses -= base_llc.accesses;
    result.llcStats.hits -= base_llc.hits;
    result.llcStats.misses -= base_llc.misses;
    result.llcStats.writebacks -= base_llc.writebacks;
    result.llcStats.writeMisses -= base_llc.writeMisses;
    result.memStats = aggregateMemStats();
    result.memStats.cycles -= base_mem.cycles;
    result.memStats.readsServed -= base_mem.readsServed;
    result.memStats.writesServed -= base_mem.writesServed;
    result.memStats.demandActs -= base_mem.demandActs;
    result.memStats.autoRefreshes -= base_mem.autoRefreshes;
    result.memStats.mitigationRefreshes -= base_mem.mitigationRefreshes;
    result.memStats.mitigationBusyCycles -= base_mem.mitigationBusyCycles;
    result.memStats.readQueueFullEvents -= base_mem.readQueueFullEvents;
    result.memStats.droppedWritebacks -= base_mem.droppedWritebacks;
    result.cpuCycles = cpuCycle_ - base_cpu;
    return result;
}

} // namespace rowhammer::core
