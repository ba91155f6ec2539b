/**
 * @file
 * Bridge from the attack-pattern IR to the cycle-accurate simulation
 * stack: a cpu::TraceSource that endlessly replays an AccessPattern's
 * activation schedule as serialized read accesses, so an attack can be
 * driven through cpu::Core -> sim::Controller under full FR-FCFS
 * scheduling, refresh, and mitigation modeling.
 *
 * Each scheduled activation becomes one cache-line read of the slot's
 * row; the column rotates per visit so no two consecutive accesses to a
 * row share a line (a CLFLUSH-armed attacker defeats the cache; the
 * row-buffer behaviour is left to the controller, which is the point of
 * driving the cycle-accurate path).
 */

#ifndef ROWHAMMER_ATTACK_TRACE_ADAPTER_HH
#define ROWHAMMER_ATTACK_TRACE_ADAPTER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/pattern.hh"
#include "cpu/core.hh"
#include "sim/request.hh"

namespace rowhammer::attack
{

/**
 * A pattern re-expressed in the controller's true DRAM space (see
 * remapPattern). droppedSlots counts believed aggressors that do not
 * hammer the victim: landed in another bank (or on another channel's
 * controller entirely), collapsed onto the victim row itself (merely
 * refreshing it), or collided with an already-kept row. Their
 * activations are removed from the schedule. Bank indices are global,
 * channel-major (dram::Organization::globalFlatBank).
 */
struct RemappedPattern
{
    AccessPattern pattern;
    int droppedSlots = 0;
};

/**
 * The mapping side of a real attack: an attacker who profiled a victim
 * at some physical address builds its pattern in the DRAM space of the
 * address functions it *believes* the controller uses (`assumed`),
 * then issues physical addresses by inverting that belief. The
 * controller decodes them with the *actual* functions. This helper
 * computes where the believed pattern really lands: slots are
 * translated believed-space -> physical -> actual-space; slots that
 * leave the victim's true bank (or collapse onto the victim row, which
 * merely refreshes it) are dropped. When assumed and actual agree —
 * the zenhammer scenario, where the attacker recovered the true masks
 * — the pattern is returned unchanged: inverting the mapping is
 * exactly what lands every aggressor in one bank.
 */
RemappedPattern remapPattern(const AccessPattern &believed,
                             const sim::AddressMapper &assumed,
                             const sim::AddressMapper &actual);

/**
 * The address-mapping context of an attack driver (the mapping,
 * attackerMapping, mappingRanks and mappingChannels fields that
 * SweepConfig and FuzzerConfig share): the controller's true mapping
 * and the one the attacker believes, over an organization that splits
 * the chip's banks channel-major across channels x ranks. Patterns are
 * built in the believed DRAM space and land() in the true one. When
 * both mappings are "linear" the context is unmapped and every method
 * is the identity, so the historical linear path stays byte-identical.
 */
class AttackMapping
{
  public:
    /**
     * @param mapping The controller's address functions (preset name or
     *     mask-file path; see dram::AddressFunctions).
     * @param attacker_mapping The attacker's belief; empty = `mapping`
     *     (a zenhammer-style attacker that recovered the true masks).
     * fatal() when mapped unless ranks and channels are >= 1 and
     * channels * ranks divides geometry.banks.
     */
    AttackMapping(const std::string &mapping,
                  const std::string &attacker_mapping, int ranks,
                  int channels, const fault::ChipGeometry &geometry);

    /** False when both mappings are "linear". */
    bool mapped() const { return actual_.has_value(); }

    /** True when the attacker believes a different mapping than the
     *  controller uses. */
    bool naive() const { return naive_; }

    /**
     * The (bank, row) where the attacker believes the victim at true
     * (bank, row) sits: it knows the victim's physical address (it saw
     * a flip there) and locates it in its believed DRAM space.
     */
    std::pair<int, int> believedVictim(int bank, int row) const;

    /** Where a believed pattern lands (remapPattern's pattern). */
    AccessPattern land(AccessPattern believed) const;

  private:
    std::optional<sim::AddressMapper> actual_;
    std::optional<sim::AddressMapper> assumed_;
    bool naive_ = false;
};

/** See the file comment. */
class TraceAdapter : public cpu::TraceSource
{
  public:
    /**
     * @param pattern The pattern to replay (copied; must be well-formed
     *     and fit the mapper's organization).
     * @param mapper Address mapping of the target memory system.
     * @param bubbles Non-memory instructions between accesses (0 = a
     *     tight hammer loop).
     */
    TraceAdapter(AccessPattern pattern, sim::AddressMapper mapper,
                 int bubbles = 0);

    /** Next access; cycles through the schedule forever. */
    cpu::TraceEntry next() override;

    const AccessPattern &pattern() const { return pattern_; }

    /** Accesses handed out so far. */
    std::int64_t emitted() const { return emitted_; }

    /**
     * Restart the schedule at slot 0 (Blacksmith's REF synchronization:
     * the attacker observes the refresh cadence and re-phases the
     * pattern at every REF, so decoy slots always fire first within a
     * refresh interval). Wire this to a Command::REF observer when
     * driving a controller.
     */
    void resync() { schedulePos_ = 0; }

    /**
     * Device address of absolute schedule position `index` (row from
     * the cyclic schedule, column rotated per visit). next() follows
     * this sequence exactly until the first resync().
     */
    dram::Address addressAt(std::int64_t index) const;

  private:
    /** Address of a read of `row`, column rotated by visit counter. */
    dram::Address address(int row, std::int64_t visit) const;

    AccessPattern pattern_;
    sim::AddressMapper mapper_;
    std::vector<int> schedule_;
    std::int64_t emitted_ = 0;
    std::size_t schedulePos_ = 0;
    int bubbles_ = 0;
};

} // namespace rowhammer::attack

#endif // ROWHAMMER_ATTACK_TRACE_ADAPTER_HH
