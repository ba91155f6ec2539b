#include "chip_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace rowhammer::fault
{

void
ChipGeometry::serialize(util::ByteWriter &w) const
{
    w.i64(banks);
    w.i64(rows);
    w.i64(rowDataBits);
}

std::uint64_t
ChipGeometry::hash() const
{
    util::ByteWriter w;
    serialize(w);
    return util::fnv1a64(w.bytes());
}

ChipGeometry
ChipGeometry::deserialize(util::ByteReader &r)
{
    ChipGeometry g;
    g.banks = static_cast<int>(r.i64());
    g.rows = static_cast<int>(r.i64());
    g.rowDataBits = static_cast<long>(r.i64());
    return g;
}

namespace
{

/** The HC value weak-cell densities are specified at (150k hammers). */
constexpr double calibrationHc = 150000.0;

/** On-die ECC word sizes (LPDDR4: 128 data + 8 parity bits). */
constexpr long eccDataBits = 128;
constexpr long eccCodeBits = 136;

/** 64-bit-word clustering granularity for non-ECC chips. */
constexpr long plainWordBits = 64;

/**
 * Slot hash for the open-addressed weak-cell cache. Keys are dense
 * (bank * rows + row), so the identity maps sequential rows to
 * sequential slots — collision-free linear probing at our <= 50% load
 * without the latency of a mixing hash.
 */
std::uint64_t
hashKey(std::uint64_t x)
{
    return x;
}

std::uint64_t
mixRow(std::uint64_t seed, int bank, int row)
{
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(bank) << 40) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 8) ^
        0xd1b54a32d192ed03ULL;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Per-pattern aggressor-coupling polarity factor (see file comment). */
double
polarityFactor(DataPattern dp)
{
    static const std::array<double, numDataPatterns> table = [] {
        std::array<double, numDataPatterns> t{};
        for (int i = 0; i < numDataPatterns; ++i) {
            const auto p = static_cast<DataPattern>(i);
            const int diff = std::popcount(
                static_cast<unsigned>(victimByte(p) ^ aggressorByte(p)));
            t[static_cast<std::size_t>(i)] =
                0.70 + 0.30 * static_cast<double>(diff) / 8.0;
        }
        return t;
    }();
    return table[static_cast<std::size_t>(dp)];
}

double
logistic(double x)
{
    if (x > 30.0)
        return 1.0;
    if (x < -30.0)
        return 0.0;
    return 1.0 / (1.0 + std::exp(-x));
}

} // namespace

ChipModel::ChipModel(ChipSpec spec, double chip_hc_first,
                     std::uint64_t seed, ChipGeometry geometry)
    : spec_(spec), geometry_(geometry), hcFirst_(chip_hc_first),
      seed_(seed), onDie_(eccDataBits)
{
    if (hcFirst_ <= 0.0)
        util::fatal("ChipModel: chip_hc_first must be positive");
    if (geometry_.banks <= 0 || geometry_.rows < 16 ||
        geometry_.rowDataBits < 256) {
        util::fatal("ChipModel: geometry too small");
    }
    if (spec_.onDieEcc && geometry_.rowDataBits % eccDataBits != 0)
        util::fatal("ChipModel: row size must be a multiple of 128 bits");

    // Calibrate the threshold power-law exponent so that the expected
    // minimum sampled threshold across the whole chip equals hcFirst_:
    // with N cells of threshold Tcal * U^(1/k), E[min] ~ Tcal * N^(-1/k).
    const double total_bits = static_cast<double>(geometry_.banks) *
        geometry_.rows * static_cast<double>(geometry_.rowDataBits);
    const double n_cells =
        std::max(2.0, total_bits * spec_.weakDensityAt150k);
    if (hcFirst_ < 0.93 * calibrationHc) {
        powerLawK_ =
            std::log(n_cells) / std::log(calibrationHc / hcFirst_);
        powerLawK_ = std::clamp(powerLawK_, 1.5, 9.0);
    } else {
        powerLawK_ = 5.0;
    }

    const std::size_t flat_rows = static_cast<std::size_t>(
        geometry_.banks) * static_cast<std::size_t>(geometry_.rows);
    actCount_.assign(flat_rows, 0);
    actEpoch_.assign(flat_rows, 0);
    refreshBase_.assign(flat_rows, 0.0);
    refreshEpoch_.assign(flat_rows, 0);
    cellKeys_.assign(64, 0);
    cellSlots_.assign(64, 0);

    // Deterministic location of the chip's weakest cell; see header.
    util::Rng id_rng(seed_ ^ 0xabcdef12345ULL);
    weakestBank_ = static_cast<int>(
        id_rng.uniformInt(0, static_cast<std::uint64_t>(
                                 geometry_.banks - 1)));
    // Keep away from array edges so double-sided hammering is possible.
    weakestRow_ = static_cast<int>(id_rng.uniformInt(
        8, static_cast<std::uint64_t>(geometry_.rows - 9)));
}

int
ChipModel::physRow(int row) const
{
    if (spec_.rowRemap == RowRemap::PairedWordline)
        return row / 2;
    return row;
}

long
ChipModel::rowStoredBits() const
{
    if (spec_.onDieEcc)
        return geometry_.rowDataBits / eccDataBits * eccCodeBits;
    return geometry_.rowDataBits;
}

AggressorList
ChipModel::aggressorRows(int victim_row) const
{
    const int step =
        spec_.rowRemap == RowRemap::PairedWordline ? 2 : 1;
    AggressorList out;
    if (victim_row - step >= 0)
        out.push(victim_row - step);
    if (victim_row + step < geometry_.rows)
        out.push(victim_row + step);
    return out;
}

void
ChipModel::writePattern(DataPattern dp, int victim_parity)
{
    pattern_ = dp;
    victimParity_ = victim_parity & 1;
    // Epoch bump invalidates every accumulation entry in O(1). On the
    // (never-in-practice) 2^32 wrap, fall back to a real clear.
    if (++epoch_ == 0) {
        std::fill(actEpoch_.begin(), actEpoch_.end(), 0);
        std::fill(refreshEpoch_.begin(), refreshEpoch_.end(), 0);
        epoch_ = 1;
    }
}

void
ChipModel::addActivations(int bank, int row, std::int64_t count)
{
    if (bank < 0 || bank >= geometry_.banks || row < 0 ||
        row >= geometry_.rows) {
        util::panic("ChipModel::addActivations: address out of range");
    }
    const std::size_t i = flatIndex(bank, physRow(row));
    if (actEpoch_[i] != epoch_) {
        actEpoch_[i] = epoch_;
        actCount_[i] = count;
    } else {
        actCount_[i] += count;
    }
}

double
ChipModel::rawExposure(int bank, int row) const
{
    const int p = physRow(row);

    // Fast path for the dominant DDR3/DDR4 case: coupling only from the
    // two adjacent wordlines.
    if (spec_.maxCouplingDistance == 1) {
        const std::size_t base = flatIndex(bank, 0);
        double exposure = 0.0;
        if (p - 1 >= 0 && actEpoch_[base + p - 1] == epoch_)
            exposure += 0.5 * static_cast<double>(actCount_[base + p - 1]);
        if (p + 1 < geometry_.rows && actEpoch_[base + p + 1] == epoch_)
            exposure += 0.5 * static_cast<double>(actCount_[base + p + 1]);
        return exposure;
    }

    double exposure = 0.0;
    for (int dist = 1; dist <= spec_.maxCouplingDistance; dist += 2) {
        double coupling = 1.0;
        if (dist == 3)
            coupling = spec_.distance3Coupling;
        else if (dist == 5)
            coupling = spec_.distance5Coupling;
        if (coupling <= 0.0)
            continue;
        for (int sign : {-1, +1}) {
            const int neighbor = p + sign * dist;
            if (neighbor < 0 || neighbor >= geometry_.rows)
                continue;
            const std::size_t i = flatIndex(bank, neighbor);
            if (actEpoch_[i] == epoch_) {
                exposure +=
                    0.5 * coupling * static_cast<double>(actCount_[i]);
            }
        }
    }
    return exposure;
}

void
ChipModel::refreshRow(int bank, int row)
{
    const std::size_t i = flatIndex(bank, row);
    refreshBase_[i] = rawExposure(bank, row);
    refreshEpoch_[i] = epoch_;
}

double
ChipModel::exposure(int bank, int row) const
{
    double e = rawExposure(bank, row);
    const std::size_t i = flatIndex(bank, row);
    if (refreshEpoch_[i] == epoch_)
        e -= refreshBase_[i];
    return std::max(0.0, e);
}

double
ChipModel::sampleThreshold(util::Rng &rng) const
{
    if (hcFirst_ >= 0.93 * calibrationHc) {
        // Not RowHammerable below the tested range: thresholds sit above
        // the chip's (large) hcFirst.
        return hcFirst_ * (1.0 + 2.0 * rng.uniform());
    }
    double u = rng.uniform();
    if (u <= 0.0)
        u = 1e-12;
    const double t = calibrationHc * std::pow(u, 1.0 / powerLawK_);
    return std::max(t, hcFirst_);
}

ChipModel::WeakCell
ChipModel::sampleCell(util::Rng &rng, long stored_bit,
                      double threshold) const
{
    WeakCell cell;
    cell.storedBit = stored_bit;
    cell.threshold = static_cast<float>(threshold);
    cell.trueCell = rng.bernoulli(spec_.trueCellFraction);
    for (int dp = 0; dp < numDataPatterns; ++dp) {
        if (dp == static_cast<int>(spec_.worstPattern))
            cell.coupling[dp] = 1.0F;
        else
            cell.coupling[dp] =
                static_cast<float>(0.55 + 0.4 * rng.uniform());
    }
    return cell;
}

void
ChipModel::growCellTable() const
{
    const std::size_t capacity = cellKeys_.size() * 2;
    std::vector<std::uint64_t> keys(capacity, 0);
    std::vector<std::uint32_t> slots(capacity, 0);
    for (std::size_t i = 0; i < cellKeys_.size(); ++i) {
        if (cellKeys_[i] == 0)
            continue;
        std::size_t j = hashKey(cellKeys_[i]) & (capacity - 1);
        while (keys[j] != 0)
            j = (j + 1) & (capacity - 1);
        keys[j] = cellKeys_[i];
        slots[j] = cellSlots_[i];
    }
    cellKeys_ = std::move(keys);
    cellSlots_ = std::move(slots);
}

const ChipModel::RowCells &
ChipModel::weakCells(int bank, int row) const
{
    // Open-addressed probe; key is flatIndex+1 so 0 marks empty slots.
    const std::uint64_t key =
        static_cast<std::uint64_t>(flatIndex(bank, row)) + 1;
    std::size_t mask = cellKeys_.size() - 1;
    std::size_t slot = hashKey(key) & mask;
    while (cellKeys_[slot] != 0) {
        if (cellKeys_[slot] == key)
            return cellStore_[cellSlots_[slot]];
        slot = (slot + 1) & mask;
    }

    util::Rng rng(mixRow(seed_, bank, row));
    std::vector<WeakCell> cells;

    const long stored_bits = rowStoredBits();
    const long word_bits = spec_.onDieEcc ? eccCodeBits : plainWordBits;
    const long words = stored_bits / word_bits;

    // Expected weak cells in this row at the calibration hammer count.
    const double lambda = static_cast<double>(geometry_.rowDataBits) *
        spec_.weakDensityAt150k;
    const double mean_cluster = std::max(1.0, spec_.meanClusterSize);
    const auto n_clusters = rng.poisson(lambda / mean_cluster);

    for (std::uint64_t c = 0; c < n_clusters; ++c) {
        const auto size =
            1 + rng.poisson(mean_cluster - 1.0);
        const long word = static_cast<long>(
            rng.uniformInt(0, static_cast<std::uint64_t>(words - 1)));
        const double base = sampleThreshold(rng);
        for (std::uint64_t m = 0; m < size && m < 8; ++m) {
            const long bit_in_word = static_cast<long>(rng.uniformInt(
                0, static_cast<std::uint64_t>(word_bits - 1)));
            double t = base;
            if (m > 0) {
                t = base * (1.0 + spec_.clusterThresholdSpread *
                                      rng.uniform());
            }
            cells.push_back(
                sampleCell(rng, word * word_bits + bit_in_word, t));
        }
    }

    // Plant the chip's ground-truth weakest cell(s). For on-die-ECC
    // chips a lone weakest cell would be invisible (SEC corrects it), so
    // plant a tight cluster whose second member defines observability.
    if (bank == weakestBank_ && row == weakestRow_) {
        std::size_t planted = 1;
        if (spec_.onDieEcc) {
            cells.push_back(sampleCell(rng, 4, hcFirst_));
            cells.push_back(sampleCell(rng, 5, hcFirst_ * 1.002));
            cells.push_back(sampleCell(rng, 6, hcFirst_ * 1.03));
            planted = 3;
        } else {
            cells.push_back(sampleCell(rng, 4, hcFirst_));
            // Companion cells in the same 64-bit word set the chip's
            // HCsecond/HCthird, i.e. the ECC-strength multipliers of
            // Figure 9 (jittered ~10% per chip).
            if (spec_.eccMultiplier12 > 0.0) {
                const double m12 = spec_.eccMultiplier12 *
                    (0.9 + 0.2 * rng.uniform());
                cells.push_back(
                    sampleCell(rng, 9, hcFirst_ * m12));
                ++planted;
                if (spec_.eccMultiplier23 > 0.0) {
                    const double m23 = spec_.eccMultiplier23 *
                        (0.9 + 0.2 * rng.uniform());
                    cells.push_back(sampleCell(
                        rng, 14, hcFirst_ * m12 * m23));
                    ++planted;
                }
            }
        }
        // The planted cells must respond to the worst pattern: force a
        // charge orientation that the worst pattern's victim data makes
        // vulnerable (through the on-die ECC encoding if present).
        const std::uint8_t vic = victimByte(spec_.worstPattern);
        for (std::size_t i = cells.size() - planted; i < cells.size();
             ++i) {
            cells[i].trueCell = storedBitValue(vic, cells[i].storedBit);
        }
    }

    // Transpose the sampled cells into the SoA cache layout (the
    // sampling above must keep drawing in cell-major order so streams
    // stay bit-identical to the AoS implementation).
    RowCells packed;
    const std::size_t n = cells.size();
    packed.bits.reserve(n);
    packed.lanes.resize(
        static_cast<std::size_t>(numDataPatterns + 1) * n);
    for (std::size_t i = 0; i < n; ++i) {
        packed.bits.push_back((cells[i].storedBit << 1) |
                              (cells[i].trueCell ? 1 : 0));
        packed.lanes[i] = cells[i].threshold;
        for (int dp = 0; dp < numDataPatterns; ++dp) {
            packed.lanes[static_cast<std::size_t>(dp + 1) * n + i] =
                cells[i].coupling[static_cast<std::size_t>(dp)];
        }
    }

    if (cellCount_ + 1 > cellKeys_.size() / 2) {
        growCellTable();
        mask = cellKeys_.size() - 1;
        slot = hashKey(key) & mask;
        while (cellKeys_[slot] != 0)
            slot = (slot + 1) & mask;
    }
    cellStore_.push_back(std::move(packed));
    cellKeys_[slot] = key;
    cellSlots_[slot] = static_cast<std::uint32_t>(cellStore_.size() - 1);
    ++cellCount_;
    return cellStore_.back();
}

const util::BitVec &
ChipModel::dataWord(std::uint8_t fill) const
{
    util::BitVec &entry = dataWordCache_[fill];
    if (entry.size() == 0)
        entry = util::BitVec(static_cast<std::size_t>(eccDataBits), fill);
    return entry;
}

const util::BitVec &
ChipModel::codeword(std::uint8_t fill) const
{
    util::BitVec &entry = codewordCache_[fill];
    if (entry.size() == 0)
        entry = onDie_.store(dataWord(fill));
    return entry;
}

bool
ChipModel::storedBitValue(std::uint8_t fill, long stored_bit) const
{
    if (!spec_.onDieEcc)
        return patternBit(fill, static_cast<std::size_t>(stored_bit));

    // All ECC words of a pattern-filled row are identical; read the bit
    // out of the cached per-fill-byte codeword.
    return codeword(fill).get(
        static_cast<std::size_t>(stored_bit % eccCodeBits));
}

std::vector<FlipObservation>
ChipModel::readRow(int bank, int row, util::Rng &rng) const
{
    std::vector<FlipObservation> out;
    readRowInto(bank, row, rng, out);
    return out;
}

void
ChipModel::readRowInto(int bank, int row, util::Rng &rng,
                       std::vector<FlipObservation> &out) const
{
    if (bank < 0 || bank >= geometry_.banks || row < 0 ||
        row >= geometry_.rows) {
        util::panic("ChipModel::readRow: address out of range");
    }

    // An activated row is continuously refreshed: aggressors never show
    // RowHammer flips (Section 5.4).
    if (actEpoch_[flatIndex(bank, physRow(row))] == epoch_)
        return;

    // A row without weak cells cannot flip regardless of exposure; skip
    // the exposure accounting (and the caller's rng is never touched,
    // so this cannot perturb any downstream draw).
    const RowCells &cells = weakCells(bank, row);
    if (cells.empty())
        return;

    const double expo = exposure(bank, row);
    if (expo <= 0.0)
        return;

    const std::uint8_t fill = (row & 1) == victimParity_
                                  ? victimByte(pattern_)
                                  : aggressorByte(pattern_);
    const double polarity = polarityFactor(pattern_);
    const int dp_index = static_cast<int>(pattern_);

    // Raw circuit-level flips (reused scratch keeps this allocation-free
    // after warm-up). The SoA layout scans four parallel arrays; the
    // active pattern's coupling factors are one contiguous run.
    std::vector<long> &raw = rawScratch_;
    raw.clear();
    const std::size_t n = cells.size();
    const float *threshold = cells.thresholds();
    const float *coupling = cells.coupling(dp_index);
    for (std::size_t i = 0; i < n; ++i) {
        const long stored_bit = cells.storedBit(i);
        const bool stored = storedBitValue(fill, stored_bit);
        if (stored != cells.trueCell(i))
            continue; // Discharged state: nothing to leak.
        const double eff =
            expo * polarity * static_cast<double>(coupling[i]);
        const double ratio =
            eff / static_cast<double>(threshold[i]);
        const double p =
            logistic((ratio - 1.0) / spec_.thresholdWidth);
        if (rng.bernoulli(p))
            raw.push_back(stored_bit);
    }
    if (raw.empty())
        return;

    if (!spec_.onDieEcc) {
        // Two sampled weak cells can land on the same stored bit (the
        // cluster model draws bit offsets with replacement); they are
        // the same physical cell, which leaks at most once per read.
        // Emit each bit once, preserving cell order (raw is tiny, so
        // the quadratic seen-scan beats sorting and allocates nothing).
        for (std::size_t i = 0; i < raw.size(); ++i) {
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; ++j)
                seen = raw[j] == raw[i];
            if (seen)
                continue;
            const bool stored = storedBitValue(fill, raw[i]);
            out.push_back(FlipObservation{bank, row, raw[i], stored});
        }
        return;
    }

    // On-die ECC path: decode each affected stored word and report the
    // post-correction difference from the written data. The per-fill
    // data word and its encoded codeword are cached; the decode input is
    // a codeword copy with this word's raw flips applied.
    std::sort(raw.begin(), raw.end());
    const util::BitVec &data = dataWord(fill);
    std::size_t i = 0;
    while (i < raw.size()) {
        const long word = raw[i] / eccCodeBits;
        std::vector<std::size_t> &in_word = wordScratch_;
        in_word.clear();
        while (i < raw.size() && raw[i] / eccCodeBits == word) {
            in_word.push_back(
                static_cast<std::size_t>(raw[i] % eccCodeBits));
            ++i;
        }
        // Duplicate weak cells on the same stored bit are one physical
        // cell: it leaks once, not twice. Keep one copy.
        std::sort(in_word.begin(), in_word.end());
        in_word.erase(std::unique(in_word.begin(), in_word.end()),
                      in_word.end());

        util::BitVec stored = codeword(fill);
        for (std::size_t bit : in_word)
            stored.flip(bit);
        util::BitVec diff = onDie_.readWord(stored);
        diff ^= data;
        diff.forEachSet([&](std::size_t bit) {
            out.push_back(FlipObservation{
                bank, row,
                word * eccDataBits + static_cast<long>(bit),
                data.get(bit)});
        });
    }
}

std::vector<FlipObservation>
ChipModel::hammerDoubleSided(int bank, int victim_row, std::int64_t hc,
                             DataPattern dp, util::Rng &rng)
{
    const AggressorList aggressors = aggressorRows(victim_row);
    std::array<AggressorDose, 2> doses{};
    for (std::size_t i = 0; i < aggressors.size(); ++i)
        doses[i] = AggressorDose{aggressors[i], hc};
    return hammerRows(
        bank, victim_row,
        std::span<const AggressorDose>(doses.data(), aggressors.size()),
        dp, rng);
}

std::pair<int, int>
ChipModel::blastReadRange(int lo_row, int hi_row) const
{
    const int radius = spec_.maxCouplingDistance + 1;
    const int pair_extra =
        spec_.rowRemap == RowRemap::PairedWordline ? 2 * radius + 1 : 0;
    return {std::max(0, lo_row - radius - pair_extra),
            std::min(geometry_.rows - 1, hi_row + radius + pair_extra)};
}

std::vector<FlipObservation>
ChipModel::hammerRows(int bank, int victim_row,
                      std::span<const AggressorDose> doses, DataPattern dp,
                      util::Rng &rng)
{
    if (doses.empty())
        util::fatal("ChipModel::hammerRows: empty aggressor set");

    writePattern(dp, victim_row & 1);
    refreshRow(bank, victim_row);
    int lo = victim_row;
    int hi = victim_row;
    for (const AggressorDose &dose : doses) {
        if (dose.count < 0)
            util::fatal("ChipModel::hammerRows: negative dose");
        addActivations(bank, dose.row, dose.count);
        lo = std::min(lo, dose.row);
        hi = std::max(hi, dose.row);
    }

    // Read the dosed span plus the coupling blast radius. Rows beyond
    // the radius of every aggressor have zero exposure and consume no
    // randomness, so widening the span is observation-neutral (this is
    // what keeps the two-dose case flip-identical to the historical
    // victim-centered read loop).
    std::vector<FlipObservation> out;
    const auto [read_lo, read_hi] = blastReadRange(lo, hi);
    for (int row = read_lo; row <= read_hi; ++row)
        readRowInto(bank, row, rng, out);
    return out;
}

} // namespace rowhammer::fault
