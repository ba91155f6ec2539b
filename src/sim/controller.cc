#include "controller.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace rowhammer::sim
{

namespace
{

struct CompletionLater
{
    bool
    operator()(const std::pair<dram::Cycle, std::function<void()>> &a,
               const std::pair<dram::Cycle, std::function<void()>> &b) const
    {
        return a.first > b.first;
    }
};

} // namespace

Controller::Controller(dram::Organization org, dram::TimingSpec timing)
    : Controller(org, timing, Config{})
{
}

Controller::Controller(dram::Organization org, dram::TimingSpec timing,
                       Config config)
    : Controller(org, timing, config, dram::AddressFunctions::linear())
{
}

Controller::Controller(dram::Organization org, dram::TimingSpec timing,
                       Config config, dram::AddressFunctions functions)
    : org_(org), device_(org, timing),
      mapper_(org, std::move(functions)), config_(config)
{
    if (config_.writeLowWatermark >= config_.writeHighWatermark ||
        config_.writeHighWatermark > config_.writeQueueSize) {
        util::fatal("Controller: inconsistent write watermarks");
    }
    nextRefreshAt_ = timing.tREFI;
    stats_.ranks = org_.ranks;
    bankLastUse_.assign(static_cast<std::size_t>(org_.totalBanks()), 0);
    protectedMask_.assign(
        (static_cast<std::size_t>(org_.totalBanks()) + 63) / 64, 0);
    openRowByBank_.assign(static_cast<std::size_t>(org_.totalBanks()),
                          -1);
    bankSeen_.assign(2 * static_cast<std::size_t>(org_.totalBanks()), 0);
}

void
Controller::setMitigation(mitigation::Mitigation *mechanism)
{
    mitigation_ = mechanism;
    wake_ = 0;
}

int
Controller::readQueueSpace() const
{
    return config_.readQueueSize - static_cast<int>(readQueue_.size());
}

int
Controller::writeQueueSpace() const
{
    return config_.writeQueueSize - static_cast<int>(writeQueue_.size());
}

dram::Cycle
Controller::cpuInteractionBound() const
{
    dram::Cycle bound = std::numeric_limits<dram::Cycle>::max();
    if (!completions_.empty())
        bound = std::min(bound, completions_.front().first);
    // Any read still queued can complete no earlier than a RD issued
    // this very cycle; writes and victim refreshes never call back.
    if (!readQueue_.empty())
        bound = std::min(bound, device_.readDataAt(now_));
    return bound;
}

bool
Controller::enqueue(Request request)
{
    request.decoded = mapper_.decode(request.addr);
    request.arrival = now_;
    protectedKey_ = -1; // The queues are the mask's input.

    if (request.type == Request::Type::Write) {
        if (static_cast<int>(writeQueue_.size()) >=
            config_.writeQueueSize) {
            return false;
        }
        writeQueue_.push_back(std::move(request));
        wake_ = 0; // New work invalidates the next-event cache.
        return true;
    }

    if (static_cast<int>(readQueue_.size()) >= config_.readQueueSize) {
        ++stats_.readQueueFullEvents;
        return false;
    }
    // Forward from a queued write to the same line, if any.
    const std::uint64_t line = request.addr / 64;
    for (const Request &w : writeQueue_) {
        if (w.addr / 64 == line) {
            ++stats_.readsServed;
            if (request.onComplete) {
                completions_.emplace_back(now_ + 1, request.onComplete);
                std::push_heap(completions_.begin(), completions_.end(),
                               CompletionLater{});
                wake_ = 0;
            }
            return true;
        }
    }
    readQueue_.push_back(std::move(request));
    wake_ = 0;
    return true;
}

bool
Controller::idle() const
{
    return readQueue_.empty() && writeQueue_.empty() &&
        victimQueue_.empty() && completions_.empty();
}

dram::Address
Controller::victimAddress(const mitigation::VictimRef &ref) const
{
    dram::Address a = org_.bankAddress(ref.flatBank);
    a.row = ref.row;
    return a;
}

void
Controller::queueVictims()
{
    for (const auto &v : victimScratch_) {
        if (v.row < 0 || v.row >= org_.rows)
            continue; // Tracked neighbor of an edge row.
        victimQueue_.push_back(VictimRefresh{victimAddress(v), false});
    }
    victimScratch_.clear();
}

void
Controller::observeActivate(const dram::Address &addr)
{
    ++stats_.demandActs;
    if (!mitigation_)
        return;
    victimScratch_.clear();
    mitigation_->onActivate(org_.flatBank(addr), addr.row, now_,
                            victimScratch_);
    queueVictims();
}

bool
Controller::tryIssueRefresh()
{
    const double mult =
        mitigation_ ? mitigation_->refreshRateMultiplier() : 1.0;

    if (!refreshPending_ && now_ >= nextRefreshAt_) {
        refreshPending_ = true;
        refreshRanksLeft_ = org_.ranks;
    }
    if (!refreshPending_)
        return false;

    // Close any open bank first (one command per cycle).
    dram::Address addr;
    for (addr.rank = 0; addr.rank < org_.ranks; ++addr.rank) {
        for (addr.bankGroup = 0; addr.bankGroup < org_.bankGroups;
             ++addr.bankGroup) {
            for (addr.bank = 0; addr.bank < org_.banksPerGroup;
                 ++addr.bank) {
                if (!device_.isOpen(addr))
                    continue;
                if (device_.canIssue(dram::Command::PRE, addr, now_)) {
                    device_.issue(dram::Command::PRE, addr, now_);
                    acted_ = true;
                    return true;
                }
                return true; // Wait for the PRE to become legal.
            }
        }
    }

    // REF is a per-rank command: one per rank per boundary, back to
    // back (with one rank this is exactly the historical single REF).
    addr = dram::Address{};
    addr.rank = org_.ranks - refreshRanksLeft_;
    if (!device_.canIssue(dram::Command::REF, addr, now_))
        return true; // Banks closed but timing not met yet; keep waiting.

    device_.issue(dram::Command::REF, addr, now_);
    acted_ = true;
    ++stats_.autoRefreshes;

    // Auto-refresh time beyond the baseline refresh rate is mitigation
    // overhead (increased-refresh-rate mechanism); each rank pays tRFC.
    if (mult > 1.0) {
        stats_.mitigationBusyCycles +=
            static_cast<double>(device_.timing().tRFC) *
            (mult - 1.0) / mult;
    }

    if (--refreshRanksLeft_ > 0)
        return true;

    refreshPending_ = false;
    const auto interval = static_cast<dram::Cycle>(
        static_cast<double>(device_.timing().tREFI) / std::max(1.0, mult));
    nextRefreshAt_ = now_ + std::max<dram::Cycle>(interval, 1);

    if (mitigation_) {
        const int rows_per_ref = std::max(
            1, org_.rows / std::max(1, device_.timing()
                                           .refreshesPerWindow()));
        victimScratch_.clear();
        mitigation_->onRefresh(refIndex_, rows_per_ref, victimScratch_);
        queueVictims();
    }
    ++refIndex_;
    return true;
}

void
Controller::refreshOpenRows() const
{
    dram::Address addr;
    for (addr.rank = 0; addr.rank < org_.ranks; ++addr.rank) {
        for (addr.bankGroup = 0; addr.bankGroup < org_.bankGroups;
             ++addr.bankGroup) {
            for (addr.bank = 0; addr.bank < org_.banksPerGroup;
                 ++addr.bank) {
                openRowByBank_[static_cast<std::size_t>(
                    org_.flatBank(addr))] =
                    device_.isOpen(addr) ? device_.openRow(addr) : -1;
            }
        }
    }
}

void
Controller::computeProtectedBanks(bool include_reads,
                                  bool include_writes) const
{
    const int key = (include_reads ? 1 : 0) | (include_writes ? 2 : 0);
    if (key == protectedKey_)
        return;
    protectedKey_ = key;
    refreshOpenRows();
    std::fill(protectedMask_.begin(), protectedMask_.end(), 0);
    auto scan = [&](const std::deque<Request> &queue) {
        for (const Request &request : queue) {
            const auto flat = static_cast<std::size_t>(
                org_.flatBank(request.decoded));
            if (request.decoded.row >= 0 &&
                openRowByBank_[flat] == request.decoded.row) {
                protectedMask_[flat / 64] |= 1ULL << (flat % 64);
            }
        }
    };
    if (include_reads)
        scan(readQueue_);
    if (include_writes)
        scan(writeQueue_);
}

bool
Controller::tryIssueVictimRefresh()
{
    if (victimQueue_.empty())
        return false;
    VictimRefresh &vr = victimQueue_.front();

    if (!vr.activated) {
        // Let queued row hits on this bank drain first; closing their
        // row mid-burst would force extra activations (row thrash).
        // Only the actively-served queue can make progress, so only it
        // protects banks.
        if (device_.isOpen(vr.addr) &&
            device_.openRow(vr.addr) != vr.addr.row) {
            computeProtectedBanks(!drainingWrites_, drainingWrites_);
            if (protectedBank(org_.flatBank(vr.addr)))
                return false;
        }
        if (device_.isOpen(vr.addr) &&
            device_.openRow(vr.addr) == vr.addr.row) {
            // Row already open: opening it refreshed it; just finish.
            victimQueue_.pop_front();
            acted_ = true;
            return false;
        }
        if (device_.isOpen(vr.addr)) {
            if (device_.canIssue(dram::Command::PRE, vr.addr, now_)) {
                device_.issue(dram::Command::PRE, vr.addr, now_);
                acted_ = true;
                return true;
            }
            return true;
        }
        if (device_.canIssue(dram::Command::ACT, vr.addr, now_)) {
            device_.issue(dram::Command::ACT, vr.addr, now_);
            vr.activated = true;
            acted_ = true;
            ++stats_.mitigationRefreshes;
            stats_.mitigationBusyCycles += device_.timing().tRC;
            return true;
        }
        return true;
    }

    if (device_.canIssue(dram::Command::PRE, vr.addr, now_)) {
        device_.issue(dram::Command::PRE, vr.addr, now_);
        victimQueue_.pop_front();
        acted_ = true;
        return true;
    }
    return true;
}

bool
Controller::tryCloseIdleRow()
{
    // Open-page policy with timeout: close rows no request has touched
    // recently, so the next conflicting access pays only tRP-hidden
    // activation latency rather than a full precharge on the critical
    // path.
    dram::Address addr;
    for (addr.rank = 0; addr.rank < org_.ranks; ++addr.rank) {
        for (addr.bankGroup = 0; addr.bankGroup < org_.bankGroups;
             ++addr.bankGroup) {
            for (addr.bank = 0; addr.bank < org_.banksPerGroup;
                 ++addr.bank) {
                if (!device_.isOpen(addr))
                    continue;
                const auto flat =
                    static_cast<std::size_t>(org_.flatBank(addr));
                if (now_ - bankLastUse_[flat] <
                    config_.rowIdleCloseCycles) {
                    continue;
                }
                if (device_.canIssue(dram::Command::PRE, addr, now_)) {
                    device_.issue(dram::Command::PRE, addr, now_);
                    acted_ = true;
                    return true;
                }
            }
        }
    }
    return false;
}

bool
Controller::tryIssueDemand()
{
    // Write-drain hysteresis.
    if (drainingWrites_) {
        if (static_cast<int>(writeQueue_.size()) <=
            config_.writeLowWatermark) {
            drainingWrites_ = false;
        }
    } else if (static_cast<int>(writeQueue_.size()) >=
               config_.writeHighWatermark) {
        drainingWrites_ = true;
    }

    const bool serve_writes =
        drainingWrites_ || (readQueue_.empty() && !writeQueue_.empty());
    auto &queue = serve_writes ? writeQueue_ : readQueue_;
    if (queue.empty())
        return false;

    // Banks whose open row still has queued row-hit requests must not
    // be precharged by younger conflicting requests (hit priority).
    computeProtectedBanks(!serve_writes, serve_writes);

    // FR-FCFS: oldest row-hit first, then oldest overall. Nothing
    // issues mid-scan and the queue holds one request type, so each
    // bank's command is asked of the device at most once per pass.
    const bool is_read = !serve_writes;
    std::fill(bankSeen_.begin(), bankSeen_.end(), 0);
    for (int pass = 0; pass < 2; ++pass) {
        // Pass 1 skips the hits: pass 0 found each one's RD/WR illegal.
        const bool hits_pass = pass == 0;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            Request &request = queue[i];
            const int flat = org_.flatBank(request.decoded);
            const int open_row =
                openRowByBank_[static_cast<std::size_t>(flat)];
            const bool row_hit = open_row == request.decoded.row;
            if (row_hit != hits_pass)
                continue;
            // A conflicting request must wait while the open row still
            // serves queued hits.
            if (!row_hit && open_row >= 0 && protectedBank(flat))
                continue;
            if (seenBefore(flat, row_hit))
                continue; // Same bank, same command: still illegal.
            dram::Command cmd = dram::Command::ACT;
            if (row_hit)
                cmd = is_read ? dram::Command::RD : dram::Command::WR;
            else if (open_row >= 0)
                cmd = dram::Command::PRE;
            if (!device_.canIssue(cmd, request.decoded, now_))
                continue;
            device_.issue(cmd, request.decoded, now_);
            acted_ = true;
            if (cmd != dram::Command::PRE)
                bankLastUse_[static_cast<std::size_t>(flat)] = now_;
            if (cmd == dram::Command::ACT)
                observeActivate(request.decoded);
            if (row_hit) {
                if (is_read) {
                    ++stats_.readsServed;
                    if (request.onComplete) {
                        completions_.emplace_back(
                            device_.readDataAt(now_),
                            std::move(request.onComplete));
                        std::push_heap(completions_.begin(),
                                       completions_.end(),
                                       CompletionLater{});
                    }
                } else {
                    ++stats_.writesServed;
                }
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(i));
            }
            return true;
        }
    }
    return false;
}

void
Controller::stepAt()
{
    acted_ = false;
    protectedKey_ = -1; // Commands issued since the last mask.

    while (!completions_.empty() && completions_.front().first <= now_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      CompletionLater{});
        auto done = std::move(completions_.back());
        completions_.pop_back();
        acted_ = true;
        done.second();
    }

    // One command per cycle, in priority order: auto-refresh, victim
    // refreshes, demand traffic, idle-row housekeeping.
    if (!tryIssueRefresh()) {
        if (!tryIssueVictimRefresh()) {
            if (!tryIssueDemand())
                tryCloseIdleRow();
        }
    }
}

dram::Cycle
Controller::demandWake() const
{
    // drainingWrites_ is current here: tryIssueDemand ran (and applied
    // its hysteresis) in the step that preceded this wake computation.
    const bool serve_writes =
        drainingWrites_ || (readQueue_.empty() && !writeQueue_.empty());
    const auto &queue = serve_writes ? writeQueue_ : readQueue_;
    dram::Cycle wake = std::numeric_limits<dram::Cycle>::max();
    if (queue.empty())
        return wake;

    computeProtectedBanks(!serve_writes, serve_writes);
    std::fill(bankSeen_.begin(), bankSeen_.end(), 0);
    for (const Request &request : queue) {
        const int flat = org_.flatBank(request.decoded);
        const int open_row =
            openRowByBank_[static_cast<std::size_t>(flat)];
        const bool row_hit = open_row == request.decoded.row;
        if (seenBefore(flat, row_hit))
            continue; // Same bank, same command: same earliest cycle.
        dram::Command cmd;
        if (row_hit) {
            cmd = request.type == Request::Type::Read ? dram::Command::RD
                                                      : dram::Command::WR;
        } else if (open_row >= 0) {
            if (protectedBank(flat))
                continue; // Never attempted while the bank is protected.
            cmd = dram::Command::PRE;
        } else {
            cmd = dram::Command::ACT;
        }
        wake = std::min(wake,
                        device_.earliest(cmd, request.decoded, now_));
    }
    return wake;
}

dram::Cycle
Controller::closeWake() const
{
    dram::Cycle wake = std::numeric_limits<dram::Cycle>::max();
    dram::Address addr;
    for (addr.rank = 0; addr.rank < org_.ranks; ++addr.rank) {
        for (addr.bankGroup = 0; addr.bankGroup < org_.bankGroups;
             ++addr.bankGroup) {
            for (addr.bank = 0; addr.bank < org_.banksPerGroup;
                 ++addr.bank) {
                if (!device_.isOpen(addr))
                    continue;
                const auto flat =
                    static_cast<std::size_t>(org_.flatBank(addr));
                const dram::Cycle ready = std::max(
                    bankLastUse_[flat] + config_.rowIdleCloseCycles,
                    device_.earliest(dram::Command::PRE, addr, now_));
                wake = std::min(wake, ready);
            }
        }
    }
    return wake;
}

dram::Cycle
Controller::computeWake() const
{
    dram::Cycle wake = std::numeric_limits<dram::Cycle>::max();
    if (!completions_.empty())
        wake = std::min(wake, completions_.front().first);

    if (refreshPending_) {
        // A pending refresh blocks every other command stream; the next
        // event is the blocked PRE (first open bank, same scan order as
        // tryIssueRefresh) or, with all banks closed, REF legality.
        dram::Address addr;
        for (addr.rank = 0; addr.rank < org_.ranks; ++addr.rank) {
            for (addr.bankGroup = 0; addr.bankGroup < org_.bankGroups;
                 ++addr.bankGroup) {
                for (addr.bank = 0; addr.bank < org_.banksPerGroup;
                     ++addr.bank) {
                    if (!device_.isOpen(addr))
                        continue;
                    return std::max(
                        std::min(wake,
                                 device_.earliest(dram::Command::PRE,
                                                  addr, now_)),
                        now_);
                }
            }
        }
        dram::Address ref_addr{};
        ref_addr.rank = org_.ranks - refreshRanksLeft_;
        return std::max(
            std::min(wake, device_.earliest(dram::Command::REF,
                                            ref_addr, now_)),
            now_);
    }

    // The refresh timer is the one event that always recurs.
    wake = std::min(wake, nextRefreshAt_);

    bool victim_blocks = false;
    if (!victimQueue_.empty()) {
        const VictimRefresh &vr = victimQueue_.front();
        const bool open = device_.isOpen(vr.addr);
        if (vr.activated) {
            victim_blocks = true;
            wake = std::min(wake, device_.earliest(dram::Command::PRE,
                                                   vr.addr, now_));
        } else if (open && device_.openRow(vr.addr) != vr.addr.row) {
            computeProtectedBanks(!drainingWrites_, drainingWrites_);
            if (protectedBank(org_.flatBank(vr.addr))) {
                // Deferring to demand traffic; the protection can only
                // change when something else acts.
            } else {
                victim_blocks = true;
                wake = std::min(wake,
                                device_.earliest(dram::Command::PRE,
                                                 vr.addr, now_));
            }
        } else if (open) {
            // Row already open == victim row would have been popped (an
            // action) by the step that just ran; force a slow re-check.
            return now_;
        } else {
            victim_blocks = true;
            wake = std::min(wake, device_.earliest(dram::Command::ACT,
                                                   vr.addr, now_));
        }
    }

    if (!victim_blocks) {
        wake = std::min(wake, demandWake());
        wake = std::min(wake, closeWake());
    }
    return std::max(wake, now_);
}

void
Controller::advanceTo(dram::Cycle target)
{
    while (now_ < target) {
        if (config_.eventDriven && now_ < wake_) {
            // Nothing can change before wake_: advance in one jump.
            const dram::Cycle jump = std::min(wake_, target);
            stats_.cycles += jump - now_;
            now_ = jump;
            continue;
        }
        stepAt();
        ++stats_.cycles;
        ++now_;
        if (config_.eventDriven)
            wake_ = acted_ ? now_ : computeWake();
    }
}

} // namespace rowhammer::sim
