#include "system.hh"

#include <algorithm>
#include <limits>

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
    // included, on the demand channel's read queue), and skipping the
    // controller entirely spares the common case a channel sync.
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
    controller.advanceTo(chanSyncTarget_);
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
        // A queued read lowers the earliest cycle this channel can
        // return data to the CPU; the running epoch must not outrun it.
        epochHorizon_ =
            std::min(epochHorizon_, controller.cpuInteractionBound());
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
        victim_controller.advanceTo(chanSyncTarget_);
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
System::syncChannels(dram::Cycle target)
{
    int space = 0;
    for (auto &controller : controllers_) {
        controller->advanceTo(target);
        space += controller->readQueueSpace() +
            controller->writeQueueSpace();
    }
    return space;
}

dram::Cycle
System::deviceNow() const
{
    dram::Cycle now = 0;
    for (const auto &controller : controllers_)
        now = std::max(now, controller->now());
    return now;
}

void
System::step()
{
    for (auto &controller : controllers_) {
        controller->tick();
        controller->drainCompleted([this](int core, std::uint32_t slot) {
            --mshrInUse_[static_cast<std::size_t>(core)];
            cores_[static_cast<std::size_t>(core)]->complete(slot);
        });
    }
    chanSyncTarget_ = controllers_.front()->now();
    for (int ticks = takeCpuTicks(); ticks > 0; --ticks)
        cpuTick();
}

void
System::advanceEpoch(const std::function<bool()> &stop)
{
    const dram::Cycle start = controllers_.front()->now();
    dram::Cycle bound = std::numeric_limits<dram::Cycle>::max();
    for (const auto &controller : controllers_)
        bound = std::min(bound, controller->cpuInteractionBound());

    if (bound <= start) {
        // A read's data can return this very cycle: run one reference
        // lockstep cycle, which drains the channels in canonical order.
        step();
        return;
    }

    // No channel can return a read to the CPU before `bound`: run the
    // CPU side ahead and let each channel catch up only when the CPU
    // touches it (sendFromCore syncs it to chanSyncTarget_). During CPU
    // device-step t that target is t + 1, exactly where the lockstep
    // engine would have the channel when step t's requests land.
    epochHorizon_ = std::min(bound, start + kEpochCapCycles);
    dram::Cycle t = start;
    // Set by a CPU tick that made no progress. No read from memory
    // completes inside an epoch, so until an LLC hit completes or a
    // rejected send could be accepted (its channel's queue space grew),
    // every later tick would repeat it exactly: each device step then
    // only advances the channels to where a send would sync them and
    // counts the idle CPU cycles. Queue space only grows while no core
    // enqueues, so an unchanged total means no queue changed.
    bool frozen = false;
    int frozen_space = 0;
    do {
        chanSyncTarget_ = t + 1;
        const int ticks = takeCpuTicks();
        if (frozen) {
            frozen = syncChannels(t + 1) == frozen_space &&
                (hitQueue_.empty() ||
                 hitQueue_.front().at > cpuCycle_ + ticks);
        }
        if (frozen) {
            cpuCycle_ += ticks;
            for (auto &c : cores_)
                c->idleCycles(ticks);
        } else {
            bool progress = true;
            for (int i = 0; i < ticks; ++i)
                progress = cpuTick();
            if (!progress) {
                frozen = true;
                frozen_space = syncChannels(t + 1);
            }
        }
        ++t;
    } while (!(stop && stop()) && t < epochHorizon_);
    // Close the epoch at t: every channel catches up to the CPU. No
    // read's data returns during the catch-up — deadlines sit at or
    // beyond the horizon, and advanceTo(t) only executes cycles below
    // t — so the next serial step delivers them.
    for (auto &controller : controllers_)
        controller->advanceTo(t);
    chanSyncTarget_ = t;
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
        // Guard against pathological configurations. Channel-aware:
        // deviceNow() takes the max over all channels, so a saturated
        // non-zero channel trips the fatal too.
        const std::int64_t max_device_cycles =
            2LL * 1000 * 1000 * 1000;
        const dram::Cycle start = deviceNow();
        const auto check_converged = [&] {
            if (deviceNow() - start > max_device_cycles) {
                util::fatal("System::run: simulation did not converge "
                            "(mitigation overhead may be saturating "
                            "a DRAM channel)");
            }
        };
        if (config_.lockstep) {
            while (!all_retired(targets)) {
                step();
                check_converged();
            }
            return;
        }
        const std::function<bool()> stop = [&] {
            return all_retired(targets);
        };
        while (!all_retired(targets)) {
            advanceEpoch(stop);
            check_converged();
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
