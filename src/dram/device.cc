#include "device.hh"

#include <algorithm>

#include "util/logging.hh"

namespace rowhammer::dram
{

Device::Device(Organization org, TimingSpec timing)
    : org_(org), timing_(timing)
{
    org_.check();
    timing_.check();
    banks_.resize(static_cast<std::size_t>(org_.totalBanks()));
    groups_.resize(static_cast<std::size_t>(org_.ranks * org_.bankGroups));
    ranks_.resize(static_cast<std::size_t>(org_.ranks));
}

const Device::BankState &
Device::bank(const Address &addr) const
{
    return banks_[static_cast<std::size_t>(org_.flatBank(addr))];
}

Device::BankState &
Device::bank(const Address &addr)
{
    return banks_[static_cast<std::size_t>(org_.flatBank(addr))];
}

const Device::GroupState &
Device::group(const Address &addr) const
{
    return groups_[static_cast<std::size_t>(
        addr.rank * org_.bankGroups + addr.bankGroup)];
}

Device::GroupState &
Device::group(const Address &addr)
{
    return groups_[static_cast<std::size_t>(
        addr.rank * org_.bankGroups + addr.bankGroup)];
}

Cycle
Device::earliestPre(const Address &addr) const
{
    const auto &b = bank(addr);
    const auto &r = ranks_[static_cast<std::size_t>(addr.rank)];
    return std::max(b.nextPre, r.nextAny);
}

Cycle
Device::earliest(Command cmd, const Address &addr, Cycle now) const
{
    if (!org_.contains(addr) && cmd != Command::PREA && cmd != Command::REF)
        util::panic("Device::earliest: address out of range");

    const auto &r = ranks_[static_cast<std::size_t>(addr.rank)];
    Cycle t = std::max(now, r.nextAny);

    switch (cmd) {
      case Command::ACT: {
        const auto &b = bank(addr);
        const auto &g = group(addr);
        t = std::max({t, b.nextAct, g.nextAct, r.nextAct});
        // tFAW: the 4th-most-recent ACT must be at least tFAW old.
        if (r.actWindow.size() >= 4) {
            const Cycle fourth_last =
                r.actWindow.nthOldest(r.actWindow.size() - 4);
            t = std::max(t, fourth_last + timing_.tFAW);
        }
        return t;
      }
      case Command::PRE:
        return std::max(t, earliestPre(addr));
      case Command::PREA: {
        Cycle latest = t;
        Address a = addr;
        for (a.bankGroup = 0; a.bankGroup < org_.bankGroups;
             ++a.bankGroup) {
            for (a.bank = 0; a.bank < org_.banksPerGroup; ++a.bank)
                latest = std::max(latest, earliestPre(a));
        }
        return latest;
      }
      case Command::RD: {
        const auto &b = bank(addr);
        const auto &g = group(addr);
        return std::max({t, b.nextRdWr, g.nextRd, r.nextRd});
      }
      case Command::WR: {
        const auto &b = bank(addr);
        const auto &g = group(addr);
        return std::max({t, b.nextRdWr, g.nextWr, r.nextWr});
      }
      case Command::REF: {
        // All banks must be precharged; REF waits until every bank's
        // in-flight row cycle completes (nextAct is when a fresh ACT may
        // start, which upper-bounds precharge completion).
        Cycle latest = t;
        Address a = addr;
        for (a.bankGroup = 0; a.bankGroup < org_.bankGroups;
             ++a.bankGroup) {
            for (a.bank = 0; a.bank < org_.banksPerGroup; ++a.bank) {
                const auto &b = bank(a);
                latest = std::max(latest, b.nextAct);
            }
        }
        return latest;
      }
      default:
        util::panic("Device::earliest: unknown command");
    }
}

bool
Device::canIssue(Command cmd, const Address &addr, Cycle at) const
{
    switch (cmd) {
      case Command::ACT:
        if (bank(addr).open)
            return false;
        break;
      case Command::RD:
      case Command::WR:
        if (!bank(addr).open)
            return false;
        break;
      case Command::REF: {
        Address a = addr;
        for (a.bankGroup = 0; a.bankGroup < org_.bankGroups;
             ++a.bankGroup) {
            for (a.bank = 0; a.bank < org_.banksPerGroup; ++a.bank) {
                if (bank(a).open)
                    return false;
            }
        }
        break;
      }
      case Command::PRE:
      case Command::PREA:
        break;
      default:
        return false;
    }
    return earliest(cmd, addr, at) <= at;
}

void
Device::issue(Command cmd, const Address &addr, Cycle at)
{
    if (at < lastIssue_)
        util::panic("Device::issue: time went backwards");
    if (!canIssue(cmd, addr, at)) {
        util::panic("Device::issue: illegal " + toString(cmd) +
                    " at cycle " + std::to_string(at));
    }
    lastIssue_ = at;

    auto &r = ranks_[static_cast<std::size_t>(addr.rank)];

    switch (cmd) {
      case Command::ACT: {
        auto &b = bank(addr);
        auto &g = group(addr);
        b.open = true;
        b.nextAct = at + timing_.tRC;
        b.nextPre = at + timing_.tRAS;
        b.nextRdWr = at + timing_.tRCD;
        g.nextAct = std::max(g.nextAct, at + timing_.tRRDL);
        r.nextAct = std::max(r.nextAct, at + timing_.tRRDS);
        r.actWindow.push(at);
        break;
      }
      case Command::PRE: {
        auto &b = bank(addr);
        b.open = false;
        b.nextAct = std::max(b.nextAct, at + timing_.tRP);
        break;
      }
      case Command::PREA: {
        Address a = addr;
        for (a.bankGroup = 0; a.bankGroup < org_.bankGroups;
             ++a.bankGroup) {
            for (a.bank = 0; a.bank < org_.banksPerGroup; ++a.bank) {
                auto &b = bank(a);
                b.open = false;
                b.nextAct = std::max(b.nextAct, at + timing_.tRP);
            }
        }
        break;
      }
      case Command::RD: {
        auto &b = bank(addr);
        auto &g = group(addr);
        b.nextPre = std::max(b.nextPre, at + timing_.tRTP);
        g.nextRd = std::max(g.nextRd, at + timing_.tCCDL);
        g.nextWr = std::max(g.nextWr, at + timing_.tCCDL);
        r.nextRd = std::max(r.nextRd, at + timing_.tCCDS);
        r.nextWr = std::max(r.nextWr, at + timing_.readToWrite());
        break;
      }
      case Command::WR: {
        auto &b = bank(addr);
        auto &g = group(addr);
        b.nextPre = std::max(
            b.nextPre, at + timing_.writeBurstEnd() + timing_.tWR);
        g.nextRd = std::max(g.nextRd, at + timing_.writeToReadL());
        g.nextWr = std::max(g.nextWr, at + timing_.tCCDL);
        r.nextRd = std::max(r.nextRd, at + timing_.writeToReadS());
        r.nextWr = std::max(r.nextWr, at + timing_.tCCDS);
        break;
      }
      case Command::REF: {
        r.nextAny = at + timing_.tRFC;
        break;
      }
      default:
        util::panic("Device::issue: unknown command");
    }

    if (observer_)
        observer_(cmd, addr, at);
}

bool
Device::isOpen(const Address &addr) const
{
    return bank(addr).open;
}

} // namespace rowhammer::dram
