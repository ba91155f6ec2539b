/**
 * @file
 * The tested DRAM population: every module from the paper's Appendix
 * Tables 7 (DDR4) and 8 (DDR3), plus the LPDDR4 module counts of Table 1,
 * and chip-instance sampling so experiments can iterate "all chips of a
 * type-node configuration" the way the paper does.
 */

#ifndef ROWHAMMER_FAULT_POPULATION_HH
#define ROWHAMMER_FAULT_POPULATION_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/chip_model.hh"
#include "fault/chipspec.hh"

namespace rowhammer::fault
{

/** One row of Table 7 / Table 8 (a group of identical modules). */
struct ModuleGroup
{
    Manufacturer manufacturer;
    TypeNode typeNode;
    std::string moduleRange; ///< e.g. "A0-15".
    int moduleCount;         ///< Modules in this group.
    std::string dateCode;    ///< "yy-ww" manufacture date, or "N/A".
    int freqMts;             ///< Data rate in MT/s.
    double trcNs;            ///< tRC of the speed bin, ns.
    int sizeGb;              ///< Module capacity, GB.
    int chipsPerModule;      ///< DRAM chips per module.
    int pinWidth;            ///< x4 / x8 / x16 organization.
    /** Minimum HCfirst across the group's chips, in hammers; nullopt for
     *  the paper's "N/A" entries (no flips observed below 150k). */
    std::optional<double> minHcFirst;
};

/** One concrete chip a characterization experiment runs on. */
struct ChipInstance
{
    ChipSpec spec;
    std::string moduleId; ///< e.g. "DDR4-A17".
    int chipIndex = 0;    ///< Position within the module.
    double hcFirst = 0.0; ///< Ground-truth minimum threshold (hammers).
    bool rowHammerable = false; ///< hcFirst < 150k.
    std::uint64_t seed = 0;

    /** Materialize the fault model for this chip. */
    ChipModel makeModel(ChipGeometry geometry = ChipGeometry{}) const;

    /** Append the bit-stable encoding of every field (run-description
     *  schema; see util/serialize.hh). */
    void serialize(util::ByteWriter &w) const;

    /** FNV-1a content hash of serialize()'s bytes. Stable under
     *  population reordering or subsetting, which is what lets a
     *  checkpointed measurement survive a changed chip sample. */
    std::uint64_t hash() const;

    /** Rebuild from serialize()'s bytes; check r.ok() afterwards. */
    static ChipInstance deserialize(util::ByteReader &r);
};

/** The full Table 7 (110 DDR4 modules). */
std::vector<ModuleGroup> table7Ddr4Modules();

/** The full Table 8 (60 DDR3 modules). */
std::vector<ModuleGroup> table8Ddr3Modules();

/** LPDDR4 module groups per Table 1 counts and Table 4 HCfirst values. */
std::vector<ModuleGroup> lpddr4Modules();

/** All 300 modules. */
std::vector<ModuleGroup> allModules();

/**
 * Sample chip instances for a module group. Chips are deterministic in
 * (group identity, seed): the group's weakest chip receives exactly the
 * group's minimum HCfirst, other chips spread upward per the config's
 * Figure 8 spread; non-RowHammerable chips (Table 2) get thresholds
 * above 150k hammers.
 *
 * @param chips_per_group Cap on instances generated per group (the full
 *     population is 1580 chips; benches usually sample); fatal() if
 *     negative.
 */
std::vector<ChipInstance> sampleChips(const ModuleGroup &group,
                                      std::uint64_t seed,
                                      int chips_per_group);

/**
 * Sample chips for every module group of a type-node configuration,
 * optionally restricted to one manufacturer.
 */
std::vector<ChipInstance>
sampleConfigChips(TypeNode tn, std::optional<Manufacturer> mfr,
                  std::uint64_t seed, int chips_per_group);

} // namespace rowhammer::fault

#endif // ROWHAMMER_FAULT_POPULATION_HH
