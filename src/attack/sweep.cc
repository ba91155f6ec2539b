#include "sweep.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "attack/builder.hh"
#include "attack/trace_adapter.hh"
#include "dram/timing.hh"
#include "mitigation/factory.hh"
#include "mitigation/trr.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rowhammer::attack
{

namespace
{

/**
 * One mechanism column: a factory kind under its printable name, or a
 * TRR sampler of `samplerSize` slots labelled "TRR-<size>".
 */
struct MechDesc
{
    std::string label;
    mitigation::Kind kind = mitigation::Kind::None;
    int samplerSize = 0;
};

std::vector<MechDesc>
mechanismRoster(const SweepConfig &config)
{
    using mitigation::Kind;
    std::vector<MechDesc> out{{mitigation::toString(Kind::None), Kind::None}};
    for (int size : config.samplerSizes)
        out.push_back({"TRR-" + std::to_string(size), Kind::TrrSampler, size});
    for (Kind kind : {Kind::PARA, Kind::ProHIT, Kind::MRLoc, Kind::TWiCeIdeal,
                      Kind::Ideal})
        out.push_back({mitigation::toString(kind), kind});
    return out;
}

} // namespace

SweepConfig::SweepConfig()
    : spec(fault::configFor(fault::TypeNode::DDR4New,
                            fault::Manufacturer::A))
{
    geometry.banks = 1;
    geometry.rows = 4096;
    geometry.rowDataBits = 16384;
}

void
SweepConfig::serialize(util::ByteWriter &w) const
{
    spec.serialize(w);
    geometry.serialize(w);
    w.f64(hcFirst);
    w.u64(seed);
    w.intVec(nSides);
    w.i64(fuzzCount);
    w.intVec(samplerSizes);
    w.i64(activationBudget);
    w.i64(actsPerRefInterval);
    w.str(mapping);
    w.str(attackerMapping);
    w.i64(mappingRanks);
    w.i64(mappingChannels);
}

std::int64_t
SweepConfig::budget() const
{
    if (nSides.empty())
        util::fatal("attack sweep: nSides must not be empty");
    if (activationBudget > 0)
        return activationBudget;
    return static_cast<std::int64_t>(
        8.0 * hcFirst * *std::max_element(nSides.begin(), nSides.end()));
}

std::uint64_t
SweepConfig::hash() const
{
    util::ByteWriter w;
    serialize(w);
    return util::fnv1a64(w.bytes());
}

SweepConfig
SweepConfig::deserialize(util::ByteReader &r)
{
    SweepConfig c;
    c.spec = fault::ChipSpec::deserialize(r);
    c.geometry = fault::ChipGeometry::deserialize(r);
    c.hcFirst = r.f64();
    c.seed = r.u64();
    c.nSides = r.intVec();
    c.fuzzCount = static_cast<int>(r.i64());
    c.samplerSizes = r.intVec();
    c.activationBudget = r.i64();
    c.actsPerRefInterval = r.i64();
    c.mapping = r.str();
    c.attackerMapping = r.str();
    c.mappingRanks = static_cast<int>(r.i64());
    c.mappingChannels = static_cast<int>(r.i64());
    return c;
}

void
SweepCell::serialize(util::ByteWriter &w) const
{
    w.str(pattern);
    w.str(mechanism);
    w.i64(activations);
    w.i64(flips);
    w.i64(mitigationRefreshes);
}

SweepCell
SweepCell::deserialize(util::ByteReader &r)
{
    SweepCell c;
    c.pattern = r.str();
    c.mechanism = r.str();
    c.activations = r.i64();
    c.flips = r.i64();
    c.mitigationRefreshes = r.i64();
    return c;
}

std::vector<SweepCell>
runSweep(const SweepConfig &config)
{
    const std::int64_t budget = config.budget();
    const int max_n =
        *std::max_element(config.nSides.begin(), config.nSides.end());

    // One probe chip fixes the profiled target (the weakest row); every
    // cell re-instantiates the same chip identity from the same seed.
    fault::ChipModel probe(config.spec, config.hcFirst, config.seed,
                           config.geometry);
    const int bank = probe.weakestBank();
    const int victim = probe.weakestRow();

    // With a non-linear mapping (or a mapping-naive attacker) the
    // patterns are built in the attacker's believed DRAM space and
    // re-expressed in the controller's true space.
    const AttackMapping mapping(config.mapping, config.attackerMapping,
                                config.mappingRanks,
                                config.mappingChannels, config.geometry);
    const auto [believed_bank, believed_victim] =
        mapping.believedVictim(bank, victim);

    BuilderConfig builder_config;
    builder_config.rows = config.geometry.rows;
    builder_config.step = probe.aggressorStep();
    builder_config.activationBudget = budget;
    builder_config.maxOrder = std::max(20, max_n);
    PatternBuilder builder(builder_config, config.seed);

    std::vector<AccessPattern> patterns;
    patterns.push_back(builder.singleSided(believed_bank, believed_victim));
    patterns.push_back(builder.doubleSided(believed_bank, believed_victim));
    for (int n : config.nSides)
        patterns.push_back(builder.nSided(believed_bank, believed_victim,
                                          n));
    for (int f = 0; f < config.fuzzCount; ++f) {
        patterns.push_back(builder.fuzzed(
            believed_bank, believed_victim,
            static_cast<std::uint64_t>(f)));
    }

    if (mapping.mapped()) {
        for (AccessPattern &pattern : patterns) {
            pattern = mapping.land(std::move(pattern));
            pattern.label +=
                "@" + config.mapping + (mapping.naive() ? "!naive" : "");
        }
    }

    const std::vector<MechDesc> mechs = mechanismRoster(config);
    const dram::TimingSpec timing = dram::ddr4_2400();

    SessionConfig session;
    session.actsPerRefInterval = config.actsPerRefInterval;

    // Per-cell state derives only from (config seed, cell index):
    // identical tables for any thread count.
    const auto run_cell = [&](std::size_t cell) {
        const AccessPattern &pattern = patterns[cell / mechs.size()];
        const MechDesc &desc = mechs[cell % mechs.size()];
        SweepCell out;
        out.pattern = pattern.label;
        out.mechanism = desc.label;
        // A fully scattered pattern (every believed aggressor landed
        // outside the victim's bank) hammers nothing.
        if (pattern.slots.empty())
            return out;
        fault::ChipModel chip(config.spec, config.hcFirst, config.seed,
                              config.geometry);
        std::unique_ptr<mitigation::Mitigation> mech;
        if (desc.kind == mitigation::Kind::TrrSampler) {
            mech = std::make_unique<mitigation::TrrSampler>(desc.samplerSize);
        } else {
            mech = mitigation::makeMitigation(
                desc.kind, config.hcFirst, timing, config.geometry.rows,
                util::mix64(config.seed ^ (0xA11ACEULL + cell)));
        }
        util::Rng rng(util::mix64(config.seed ^ 0x5EEDB0B0ULL ^ cell));
        const SessionResult run =
            runPattern(chip, pattern, mech.get(), session, rng);
        out.activations = run.activations;
        out.flips = static_cast<std::int64_t>(run.flips.size());
        out.mitigationRefreshes = run.mitigationRefreshes;
        return out;
    };

    // The grid shape is a pure function of the hashed config, so the
    // cell index is a stable shard key.
    const auto checkpoint = util::openCheckpoint(config, config.hash());
    std::unique_ptr<util::TaskPool> owned_pool;
    util::TaskPool &pool = util::poolFor(config, owned_pool);
    return pool.map(patterns.size() * mechs.size(), [&](std::size_t cell) {
        return util::memoized<SweepCell>(
            checkpoint.get(), cell, [&] { return run_cell(cell); },
            [](util::ByteWriter &w, const SweepCell &c) { c.serialize(w); },
            [](util::ByteReader &r, SweepCell &c) {
                c = SweepCell::deserialize(r);
                return true;
            });
    });
}

std::string
renderSweepCells(const std::vector<SweepCell> &cells)
{
    std::ostringstream out;
    for (const SweepCell &cell : cells) {
        out << cell.pattern << " " << cell.mechanism << " "
            << cell.activations << " " << cell.flips << " "
            << cell.mitigationRefreshes << "\n";
    }
    return out.str();
}

} // namespace rowhammer::attack
