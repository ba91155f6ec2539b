#include "controller.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "util/logging.hh"

namespace rowhammer::sim
{

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
    // Each bound below keeps reads servable: without a read slot no
    // read is accepted, and a drain that never reaches its low
    // watermark starves them.
    if (config_.readQueueSize < 1) {
        util::fatal("Controller: readQueueSize must be >= 1, got " +
                    std::to_string(config_.readQueueSize));
    }
    if (config_.writeLowWatermark < 0 ||
        config_.writeLowWatermark >= config_.writeHighWatermark) {
        util::fatal("Controller: writeLowWatermark must be in "
                    "[0, writeHighWatermark), got " +
                    std::to_string(config_.writeLowWatermark));
    }
    if (config_.writeHighWatermark > config_.writeQueueSize) {
        util::fatal("Controller: writeHighWatermark must be <= "
                    "writeQueueSize, got " +
                    std::to_string(config_.writeHighWatermark));
    }
    nextRefreshAt_ = timing.tREFI;
    stats_.ranks = org_.ranks;
    const auto banks = static_cast<std::size_t>(org_.totalBanks());
    for (Queue *queue : {&reads_, &writes_}) {
        queue->banks.resize(banks);
        queue->hits.assign(banks, 0);
    }
    openRow_.assign(banks, -1);
    bankLastUse_.assign(banks, 0);
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
    return config_.readQueueSize - reads_.size;
}

int
Controller::writeQueueSpace() const
{
    return config_.writeQueueSize - writes_.size;
}

bool
Controller::enqueue(Request request)
{
    request.decoded = mapper_.decode(request.addr);
    const bool write = request.type == Request::Type::Write;
    Queue &queue = write ? writes_ : reads_;

    if (write) {
        if (writes_.size >= config_.writeQueueSize)
            return false;
    } else {
        if (reads_.size >= config_.readQueueSize) {
            ++stats_.readQueueFullEvents;
            return false;
        }
        // Forward from a queued write to the same line, if any.
        const std::uint64_t line = request.addr / 64;
        for (const auto &bank : writes_.banks) {
            for (const Entry &w : bank) {
                if (w.request.addr / 64 != line)
                    continue;
                ++stats_.readsServed;
                completions_.push_back(
                    Completion{now_ + 1, request.coreId, request.slot});
                std::push_heap(completions_.begin(), completions_.end(),
                               std::greater<>{});
                return true;
            }
        }
    }

    const auto flat = static_cast<std::size_t>(
        org_.flatBank(request.decoded));
    if (openRow_[flat] == request.decoded.row)
        ++queue.hits[flat];
    queue.banks[flat].push_back(Entry{nextSeq_++, std::move(request)});
    ++queue.size;
    wake_ = 0; // New work invalidates the next-event cache.
    return true;
}

bool
Controller::idle() const
{
    return reads_.size == 0 && writes_.size == 0 &&
        victimQueue_.empty() && completions_.empty();
}

void
Controller::issue(dram::Command cmd, const dram::Address &addr)
{
    device_.issue(cmd, addr, now_);
    acted_ = true;
    if (cmd != dram::Command::ACT && cmd != dram::Command::PRE)
        return;
    const auto flat = static_cast<std::size_t>(org_.flatBank(addr));
    const bool act = cmd == dram::Command::ACT;
    openRow_[flat] = act ? addr.row : -1;
    for (Queue *queue : {&reads_, &writes_}) {
        const std::vector<Entry> &bank = queue->banks[flat];
        queue->hits[flat] = act
            ? static_cast<int>(std::count_if(
                  bank.begin(), bank.end(),
                  [&](const Entry &e) {
                      return e.request.decoded.row == addr.row;
                  }))
            : 0;
    }
}

bool
Controller::legalOrWake(dram::Command cmd, const dram::Address &addr)
{
    const dram::Cycle at = device_.earliest(cmd, addr, now_);
    if (at <= now_)
        return true;
    wakeBy(at);
    return false;
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
    if (!refreshPending_) {
        wakeBy(nextRefreshAt_);
        return false;
    }

    // Close any open bank first (one command per cycle).
    for (int flat = 0; flat < org_.totalBanks(); ++flat) {
        if (openRow_[static_cast<std::size_t>(flat)] < 0)
            continue;
        const dram::Address addr = org_.bankAddress(flat);
        if (legalOrWake(dram::Command::PRE, addr))
            issue(dram::Command::PRE, addr);
        return true; // Or wait for the PRE to become legal.
    }

    // REF is a per-rank command: one per rank per boundary, back to
    // back (with one rank this is exactly the historical single REF).
    dram::Address addr;
    addr.rank = org_.ranks - refreshRanksLeft_;
    if (!legalOrWake(dram::Command::REF, addr))
        return true; // Banks closed but timing not met yet; keep waiting.

    issue(dram::Command::REF, addr);
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

bool
Controller::tryIssueVictimRefresh()
{
    if (victimQueue_.empty())
        return false;
    VictimRefresh &vr = victimQueue_.front();

    if (!vr.activated) {
        const auto flat = static_cast<std::size_t>(org_.flatBank(vr.addr));
        if (openRow_[flat] == vr.addr.row) {
            // Row already open: opening it refreshed it; just finish.
            victimQueue_.pop_front();
            acted_ = true;
            return false;
        }
        if (openRow_[flat] >= 0) {
            // Let queued row hits on this bank drain first; closing
            // their row mid-burst would force extra activations (row
            // thrash). Only the actively-served queue can make
            // progress, so only it protects banks.
            const Queue &served = drainingWrites_ ? writes_ : reads_;
            if (served.hits[flat] > 0)
                return false;
            if (legalOrWake(dram::Command::PRE, vr.addr))
                issue(dram::Command::PRE, vr.addr);
            return true;
        }
        if (legalOrWake(dram::Command::ACT, vr.addr)) {
            issue(dram::Command::ACT, vr.addr);
            vr.activated = true;
            ++stats_.mitigationRefreshes;
            stats_.mitigationBusyCycles += device_.timing().tRC;
        }
        return true;
    }

    if (legalOrWake(dram::Command::PRE, vr.addr)) {
        issue(dram::Command::PRE, vr.addr);
        victimQueue_.pop_front();
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
    for (int flat = 0; flat < org_.totalBanks(); ++flat) {
        const auto i = static_cast<std::size_t>(flat);
        if (openRow_[i] < 0)
            continue;
        if (now_ - bankLastUse_[i] < config_.rowIdleCloseCycles) {
            wakeBy(bankLastUse_[i] + config_.rowIdleCloseCycles);
            continue;
        }
        const dram::Address addr = org_.bankAddress(flat);
        if (legalOrWake(dram::Command::PRE, addr)) {
            issue(dram::Command::PRE, addr);
            return true;
        }
    }
    return false;
}

bool
Controller::tryIssueDemand()
{
    // Write-drain hysteresis. A flip changes which queue protects banks
    // from victim refreshes; tryIssueVictimRefresh has already made that
    // test this cycle, so the next cycle must run.
    const bool draining = drainingWrites_
        ? writes_.size > config_.writeLowWatermark
        : writes_.size >= config_.writeHighWatermark;
    if (draining != drainingWrites_) {
        drainingWrites_ = draining;
        wakeBy(now_ + 1);
    }

    const bool serve_writes =
        drainingWrites_ || (reads_.size == 0 && writes_.size > 0);
    Queue &queue = serve_writes ? writes_ : reads_;
    if (queue.size == 0)
        return false;

    // FR-FCFS: the oldest legal row hit, else the oldest legal
    // non-hit. Legality depends only on the bank and the command, so
    // each bank is asked once, about its oldest candidate.
    const dram::Command column =
        serve_writes ? dram::Command::WR : dram::Command::RD;
    const std::size_t banks = queue.banks.size();
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    std::size_t best_bank = banks;
    std::size_t best_index = 0;
    for (std::size_t flat = 0; flat < banks; ++flat) {
        if (queue.hits[flat] == 0)
            continue;
        // hits > 0: the bank holds a request to its open row.
        const std::vector<Entry> &bank = queue.banks[flat];
        std::size_t i = 0;
        while (bank[i].request.decoded.row != openRow_[flat])
            ++i;
        if (bank[i].seq < best_seq &&
            legalOrWake(column, bank[i].request.decoded)) {
            best_seq = bank[i].seq;
            best_bank = flat;
            best_index = i;
        }
    }
    if (best_bank < banks) {
        std::vector<Entry> &bank = queue.banks[best_bank];
        const Request &request = bank[best_index].request;
        issue(column, request.decoded);
        bankLastUse_[best_bank] = now_;
        if (serve_writes) {
            ++stats_.writesServed;
        } else {
            ++stats_.readsServed;
            completions_.push_back(Completion{device_.readDataAt(now_),
                                              request.coreId,
                                              request.slot});
            std::push_heap(completions_.begin(), completions_.end(),
                           std::greater<>{});
        }
        bank.erase(bank.begin() + static_cast<std::ptrdiff_t>(best_index));
        --queue.hits[best_bank];
        --queue.size;
        return true;
    }

    // A bank with queued hits is protected: its conflicting requests
    // wait until the hits drain. Elsewhere every request needs the
    // same PRE (bank open) or ACT (bank closed), so the front decides.
    for (std::size_t flat = 0; flat < banks; ++flat) {
        const std::vector<Entry> &bank = queue.banks[flat];
        if (bank.empty() || queue.hits[flat] > 0 ||
            bank.front().seq >= best_seq) {
            continue;
        }
        const dram::Command cmd = openRow_[flat] >= 0
            ? dram::Command::PRE
            : dram::Command::ACT;
        if (legalOrWake(cmd, bank.front().request.decoded)) {
            best_seq = bank.front().seq;
            best_bank = flat;
        }
    }
    if (best_bank == banks)
        return false;
    const dram::Address addr = queue.banks[best_bank].front().request.decoded;
    if (openRow_[best_bank] >= 0) {
        issue(dram::Command::PRE, addr);
    } else {
        issue(dram::Command::ACT, addr);
        bankLastUse_[best_bank] = now_;
        observeActivate(addr);
    }
    return true;
}

void
Controller::stepAt()
{
    acted_ = false;
    wake_ = std::numeric_limits<dram::Cycle>::max();

    // One command per cycle, in priority order: auto-refresh, victim
    // refreshes, demand traffic, idle-row housekeeping.
    if (!tryIssueRefresh()) {
        if (!tryIssueVictimRefresh()) {
            if (!tryIssueDemand())
                tryCloseIdleRow();
        }
    }
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
        wake_ = acted_ ? now_ : std::max(wake_, now_);
    }
    // A read's data has returned once its cycle has executed. Nothing
    // the decision logic reads depends on it, so it is no wake event.
    while (!completions_.empty() && completions_.front().at < now_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      std::greater<>{});
        completed_.push_back(completions_.back());
        completions_.pop_back();
    }
}

} // namespace rowhammer::sim
