#include "trace_adapter.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"

namespace rowhammer::attack
{

RemappedPattern
remapPattern(const AccessPattern &believed,
             const sim::AddressMapper &assumed,
             const sim::AddressMapper &actual)
{
    const dram::Organization &org = actual.organization();

    // Pattern bank indices are global (channel-major): a believed
    // aggressor that lands on another channel's controller scatters
    // exactly like one landing in another bank.
    auto translate = [&](int row) {
        dram::Address addr =
            assumed.organization().globalBankAddress(believed.bank);
        addr.row = row;
        return actual.decode(assumed.encode(addr));
    };

    const dram::Address victim = translate(believed.victimRow);
    const int victim_bank = org.globalFlatBank(victim);

    RemappedPattern out;
    out.pattern = believed;
    out.pattern.bank = victim_bank;
    out.pattern.victimRow = victim.row;
    out.pattern.slots.clear();

    // Keep the believed radius when it already covers every landed
    // slot, so an exact-inverse remap returns the pattern unchanged.
    int radius = believed.blastRadius;
    for (const AggressorSlot &slot : believed.slots) {
        const dram::Address landed = translate(slot.row);
        const bool duplicate = std::any_of(
            out.pattern.slots.begin(), out.pattern.slots.end(),
            [&](const AggressorSlot &kept) {
                return kept.row == landed.row;
            });
        if (org.globalFlatBank(landed) != victim_bank ||
            landed.row == victim.row || duplicate) {
            ++out.droppedSlots;
            continue;
        }
        AggressorSlot kept = slot;
        kept.row = landed.row;
        radius = std::max(radius, std::abs(landed.row - victim.row));
        out.pattern.slots.push_back(kept);
    }
    out.pattern.blastRadius = radius;
    return out;
}

AttackMapping::AttackMapping(const std::string &mapping,
                             const std::string &attacker_mapping,
                             int ranks, int channels,
                             const fault::ChipGeometry &geometry)
{
    const std::string &believed =
        attacker_mapping.empty() ? mapping : attacker_mapping;
    if (mapping == "linear" && believed == "linear")
        return;
    if (ranks < 1 || channels < 1 ||
        geometry.banks % (ranks * channels) != 0) {
        util::fatal("attack mapping: mappingChannels * mappingRanks must "
                    "divide the geometry's bank count");
    }
    dram::Organization org;
    org.channels = channels;
    org.ranks = ranks;
    const int per_rank = geometry.banks / (channels * ranks);
    org.bankGroups = per_rank % 4 == 0 ? 4 : 1;
    org.banksPerGroup = per_rank / org.bankGroups;
    org.rows = geometry.rows;
    actual_.emplace(org, dram::AddressFunctions::resolve(mapping, org));
    assumed_.emplace(org, dram::AddressFunctions::resolve(believed, org));
    naive_ = believed != mapping;
}

std::pair<int, int>
AttackMapping::believedVictim(int bank, int row) const
{
    if (!mapped())
        return {bank, row};
    // The chip's flat banks map channel-major onto the organization.
    const dram::Organization &org = actual_->organization();
    dram::Address victim = org.globalBankAddress(bank);
    victim.row = row;
    const dram::Address believed =
        assumed_->decode(actual_->encode(victim));
    return {org.globalFlatBank(believed), believed.row};
}

AccessPattern
AttackMapping::land(AccessPattern believed) const
{
    if (!mapped())
        return believed;
    return remapPattern(believed, *assumed_, *actual_).pattern;
}

TraceAdapter::TraceAdapter(AccessPattern pattern,
                           sim::AddressMapper mapper, int bubbles)
    : pattern_(std::move(pattern)), mapper_(std::move(mapper)),
      bubbles_(bubbles)
{
    std::string why;
    if (!pattern_.wellFormed(&why))
        util::fatal("TraceAdapter: malformed pattern: " + why);
    const dram::Organization &org = mapper_.organization();
    if (pattern_.bank < 0 || pattern_.bank >= org.systemBanks())
        util::fatal("TraceAdapter: pattern bank outside the organization");
    for (const AggressorSlot &slot : pattern_.slots) {
        if (slot.row >= org.rows)
            util::fatal("TraceAdapter: aggressor row outside the "
                        "organization");
    }
    if (bubbles_ < 0)
        util::fatal("TraceAdapter: bubble count must be non-negative");
    pattern_.expand(schedule_);
}

dram::Address
TraceAdapter::address(int row, std::int64_t visit) const
{
    const dram::Organization &org = mapper_.organization();
    dram::Address addr = org.globalBankAddress(pattern_.bank);
    addr.row = row;
    // Rotate the column per visit: consecutive reads of a row touch
    // distinct cache lines, so a cache between the core and the
    // controller cannot absorb the hammer loop.
    addr.column = static_cast<int>(visit % org.columns);
    return addr;
}

cpu::TraceEntry
TraceAdapter::next()
{
    cpu::TraceEntry entry;
    entry.bubbles = bubbles_;
    entry.addr =
        mapper_.encode(address(schedule_[schedulePos_], emitted_));
    entry.write = false;
    schedulePos_ = (schedulePos_ + 1) % schedule_.size();
    ++emitted_;
    return entry;
}

} // namespace rowhammer::attack
