#include "population.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::fault
{

namespace
{

using M = Manufacturer;
using TN = TypeNode;

ModuleGroup
group(M mfr, TN tn, const char *range, int count, const char *date,
      int freq, double trc, int size, int chips, int pins,
      std::optional<double> hc_first_k)
{
    ModuleGroup g;
    g.manufacturer = mfr;
    g.typeNode = tn;
    g.moduleRange = range;
    g.moduleCount = count;
    g.dateCode = date;
    g.freqMts = freq;
    g.trcNs = trc;
    g.sizeGb = size;
    g.chipsPerModule = chips;
    g.pinWidth = pins;
    if (hc_first_k)
        g.minHcFirst = *hc_first_k * 1000.0;
    return g;
}

std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::vector<ModuleGroup>
table7Ddr4Modules()
{
    // Appendix Table 7: 110 DDR4 modules, sorted by manufacture date.
    return {
        // Manufacturer A.
        group(M::A, TN::DDR4Old, "A0-15", 16, "17-08", 2133, 47.06, 4, 8,
              8, 17.5),
        group(M::A, TN::DDR4New, "A16-18", 3, "19-19", 2400, 46.16, 4, 4,
              16, 12.5),
        group(M::A, TN::DDR4New, "A19-24", 6, "19-36", 2666, 46.25, 4, 4,
              16, 10.0),
        group(M::A, TN::DDR4New, "A25-33", 9, "19-45", 2666, 46.25, 4, 4,
              16, 10.0),
        group(M::A, TN::DDR4New, "A34-36", 3, "19-51", 2133, 46.5, 8, 8,
              8, 10.0),
        group(M::A, TN::DDR4New, "A37-46", 10, "20-07", 2400, 46.16, 8, 8,
              8, 12.5),
        group(M::A, TN::DDR4New, "A47-58", 12, "20-08", 2133, 46.5, 4, 8,
              8, 10.0),
        // Manufacturer B.
        group(M::B, TN::DDR4Old, "B0-2", 3, "N/A", 2133, 46.5, 4, 8, 8,
              30.0),
        group(M::B, TN::DDR4New, "B3-4", 2, "N/A", 2133, 46.5, 4, 8, 8,
              25.0),
        // Manufacturer C.
        group(M::C, TN::DDR4Old, "C0-7", 8, "16-48", 2133, 46.5, 4, 8, 8,
              147.5),
        group(M::C, TN::DDR4Old, "C8-17", 10, "17-12", 2133, 46.5, 4, 8,
              8, 87.0),
        group(M::C, TN::DDR4New, "C45", 1, "19-01", 2400, 45.75, 8, 8, 8,
              54.0),
        group(M::C, TN::DDR4New, "C44", 1, "19-06", 2400, 45.75, 8, 8, 8,
              63.0),
        group(M::C, TN::DDR4New, "C34", 1, "19-11", 2400, 45.75, 4, 4,
              16, 62.5),
        group(M::C, TN::DDR4New, "C35-36", 2, "19-23", 2400, 45.75, 4, 4,
              16, 63.0),
        group(M::C, TN::DDR4New, "C37-43", 7, "19-44", 2133, 46.5, 8, 8,
              8, 57.5),
        group(M::C, TN::DDR4New, "C18-27", 10, "19-48", 2400, 45.75, 8, 8,
              8, 52.5),
        group(M::C, TN::DDR4New, "C28-33", 6, "N/A", 2666, 46.5, 4, 8, 4,
              40.0),
    };
}

std::vector<ModuleGroup>
table8Ddr3Modules()
{
    // Appendix Table 8: 60 DDR3 modules, sorted by manufacture date.
    return {
        // Manufacturer A.
        group(M::A, TN::DDR3Old, "A0", 1, "10-19", 1066, 50.625, 1, 8, 8,
              155.0),
        group(M::A, TN::DDR3Old, "A1", 1, "10-40", 1333, 49.5, 2, 8, 8,
              std::nullopt),
        group(M::A, TN::DDR3Old, "A2-6", 5, "12-11", 1866, 47.91, 2, 8, 8,
              156.0),
        group(M::A, TN::DDR3Old, "A7-9", 3, "12-32", 1600, 48.75, 2, 8, 8,
              69.2),
        group(M::A, TN::DDR3New, "A10-16", 7, "14-16", 1600, 48.75, 4, 8,
              8, 85.0),
        group(M::A, TN::DDR3New, "A17-18", 2, "14-26", 1600, 48.75, 2, 4,
              16, 160.0),
        group(M::A, TN::DDR3New, "A19", 1, "15-23", 1600, 48.75, 8, 16, 4,
              155.0),
        // Manufacturer B.
        group(M::B, TN::DDR3Old, "B0-1", 2, "10-48", 1333, 49.5, 1, 8, 8,
              std::nullopt),
        group(M::B, TN::DDR3Old, "B2-4", 3, "11-42", 1333, 49.5, 2, 8, 8,
              std::nullopt),
        group(M::B, TN::DDR3Old, "B5-6", 2, "12-24", 1600, 48.75, 2, 8, 8,
              157.0),
        group(M::B, TN::DDR3Old, "B7-10", 4, "13-51", 1600, 48.75, 4, 8,
              8, std::nullopt),
        group(M::B, TN::DDR3New, "B11-14", 4, "15-22", 1600, 50.625, 4, 8,
              8, 33.5),
        group(M::B, TN::DDR3New, "B15-19", 5, "15-25", 1600, 48.75, 2, 4,
              16, 22.4),
        // Manufacturer C.
        group(M::C, TN::DDR3Old, "C0-6", 7, "10-43", 1333, 49.125, 1, 4,
              16, 155.0),
        group(M::C, TN::DDR3New, "C7", 1, "15-04", 1600, 48.75, 4, 8, 8,
              std::nullopt),
        group(M::C, TN::DDR3New, "C8-12", 5, "15-46", 1600, 48.75, 2, 8,
              8, 33.5),
        group(M::C, TN::DDR3New, "C13-19", 7, "17-03", 1600, 48.75, 4, 8,
              8, 24.0),
    };
}

std::vector<ModuleGroup>
lpddr4Modules()
{
    // Table 1 counts with Table 4 minimum HCfirst values. The LPDDR4
    // testing infrastructure is proprietary, so the paper publishes no
    // per-module appendix table; module-level attributes below carry the
    // type-level data only.
    return {
        group(M::A, TN::LPDDR4_1x, "LP1x-A0-2", 3, "N/A", 3200, 60.0, 2,
              4, 16, 43.2),
        group(M::B, TN::LPDDR4_1x, "LP1x-B0-44", 45, "N/A", 3200, 60.0,
              2, 4, 16, 16.8),
        group(M::A, TN::LPDDR4_1y, "LP1y-A0-45", 46, "N/A", 3200, 60.0,
              2, 4, 16, 4.8),
        group(M::C, TN::LPDDR4_1y, "LP1y-C0-35", 36, "N/A", 3200, 60.0,
              2, 4, 16, 9.6),
    };
}

std::vector<ModuleGroup>
allModules()
{
    std::vector<ModuleGroup> out = table8Ddr3Modules();
    auto ddr4 = table7Ddr4Modules();
    out.insert(out.end(), ddr4.begin(), ddr4.end());
    auto lp = lpddr4Modules();
    out.insert(out.end(), lp.begin(), lp.end());
    return out;
}

ChipModel
ChipInstance::makeModel(ChipGeometry geometry) const
{
    return ChipModel(spec, hcFirst, seed, geometry);
}

void
ChipInstance::serialize(util::ByteWriter &w) const
{
    spec.serialize(w);
    w.str(moduleId);
    w.i64(chipIndex);
    w.f64(hcFirst);
    w.u8(rowHammerable ? 1 : 0);
    w.u64(seed);
}

std::uint64_t
ChipInstance::hash() const
{
    util::ByteWriter w;
    serialize(w);
    return util::fnv1a64(w.bytes());
}

ChipInstance
ChipInstance::deserialize(util::ByteReader &r)
{
    ChipInstance c;
    c.spec = ChipSpec::deserialize(r);
    c.moduleId = r.str();
    c.chipIndex = static_cast<int>(r.i64());
    c.hcFirst = r.f64();
    c.rowHammerable = r.u8() != 0;
    c.seed = r.u64();
    return c;
}

std::vector<ChipInstance>
sampleChips(const ModuleGroup &g, std::uint64_t seed, int chips_per_group)
{
    if (chips_per_group < 0) {
        util::fatal("sampleChips: negative chips-per-group count " +
                    std::to_string(chips_per_group));
    }
    const ChipSpec spec = configFor(g.typeNode, g.manufacturer);
    if (!combinationExists(g.typeNode, g.manufacturer))
        util::panic("sampleChips: nonexistent chip combination");

    util::Rng rng(seed ^ hashString(g.moduleRange) ^
                  (static_cast<std::uint64_t>(g.typeNode) << 32) ^
                  (static_cast<std::uint64_t>(g.manufacturer) << 48));

    const int total = std::min(chips_per_group,
                               g.moduleCount * g.chipsPerModule);
    std::vector<ChipInstance> out;
    out.reserve(static_cast<std::size_t>(total));

    // The group's published minimum HCfirst belongs to its weakest chip;
    // "N/A" groups have no observable flips below the 150k sweep limit.
    const double group_min =
        g.minHcFirst.value_or(200000.0 + 150000.0 * rng.uniform());
    const bool group_hammerable = group_min < 150000.0;

    for (int i = 0; i < total; ++i) {
        ChipInstance chip;
        chip.spec = spec;
        chip.moduleId = toString(g.typeNode) + "-" + g.moduleRange;
        chip.chipIndex = i;
        chip.seed = rng.split(static_cast<std::uint64_t>(i))();

        // Table 2: only a fraction of the chips in below-150k groups
        // are RowHammerable. The first chip of a hammerable group is
        // pinned to the group minimum so the published value is
        // reproduced exactly.
        const bool hammerable = group_hammerable &&
            (i == 0 || rng.bernoulli(spec.rowHammerableFraction));
        if (!hammerable) {
            chip.hcFirst = 160000.0 + 240000.0 * rng.uniform();
            chip.rowHammerable = false;
        } else if (i == 0) {
            chip.hcFirst = group_min;
            chip.rowHammerable = true;
        } else {
            // Spread per Figure 8: log-uniform above the group minimum.
            const double spread = std::max(1.05, spec.hcFirstSpread);
            chip.hcFirst = group_min *
                std::exp(rng.uniform() * std::log(spread));
            chip.rowHammerable = chip.hcFirst < 150000.0;
        }
        out.push_back(std::move(chip));
    }
    return out;
}

std::vector<ChipInstance>
sampleConfigChips(TypeNode tn, std::optional<Manufacturer> mfr,
                  std::uint64_t seed, int chips_per_group)
{
    std::vector<ChipInstance> out;
    for (const ModuleGroup &g : allModules()) {
        if (g.typeNode != tn)
            continue;
        if (mfr && g.manufacturer != *mfr)
            continue;
        auto chips = sampleChips(g, seed, chips_per_group);
        out.insert(out.end(), std::make_move_iterator(chips.begin()),
                   std::make_move_iterator(chips.end()));
    }
    return out;
}

} // namespace rowhammer::fault
