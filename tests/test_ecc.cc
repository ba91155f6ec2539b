/**
 * @file
 * Unit tests for the ECC codes: Hamming SEC and the on-die (136,128)
 * model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "util/logging.hh"

#include "ecc/hamming.hh"
#include "ecc/ondie.hh"
#include "util/rng.hh"

namespace
{

using namespace rowhammer::ecc;
using rowhammer::util::BitVec;
using rowhammer::util::Rng;

BitVec
randomData(std::size_t bits, Rng &rng)
{
    BitVec data(bits);
    for (std::size_t i = 0; i < bits; ++i)
        data.set(i, rng.bernoulli(0.5));
    return data;
}

TEST(HammingSec, GeometryFor64And128)
{
    HammingSec h64(64);
    EXPECT_EQ(h64.parityBits(), 7u);
    EXPECT_EQ(h64.codeBits(), 71u);
    HammingSec h128(128);
    EXPECT_EQ(h128.parityBits(), 8u);
    EXPECT_EQ(h128.codeBits(), 136u);
}

TEST(HammingSec, RoundTripClean)
{
    Rng rng(1);
    HammingSec code(64);
    for (int i = 0; i < 50; ++i) {
        const BitVec data = randomData(64, rng);
        const DecodeResult r = code.decode(code.encode(data));
        EXPECT_EQ(r.status, DecodeStatus::NoError);
        EXPECT_TRUE(r.data == data);
    }
}

class HammingSingleError : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(HammingSingleError, EveryPositionCorrected)
{
    Rng rng(2);
    HammingSec code(64);
    const BitVec data = randomData(64, rng);
    BitVec cw = code.encode(data);
    cw.flip(GetParam());
    const DecodeResult r = code.decode(cw);
    EXPECT_EQ(r.status, DecodeStatus::Corrected);
    EXPECT_TRUE(r.data == data);
}

INSTANTIATE_TEST_SUITE_P(AllPositions, HammingSingleError,
                         ::testing::Range<std::size_t>(0, 71));

TEST(HammingSec, DoubleErrorNeverSilent)
{
    // With two flips a SEC decoder must either miscorrect (Corrected
    // with wrong data) or report DetectedOnly; it can never return
    // NoError with wrong data.
    Rng rng(3);
    HammingSec code(64);
    const BitVec data = randomData(64, rng);
    const BitVec cw = code.encode(data);
    int miscorrections = 0;
    for (int trial = 0; trial < 200; ++trial) {
        BitVec corrupted = cw;
        const auto b1 = rng.uniformInt(0, 70);
        auto b2 = rng.uniformInt(0, 70);
        while (b2 == b1)
            b2 = rng.uniformInt(0, 70);
        corrupted.flip(b1);
        corrupted.flip(b2);
        const DecodeResult r = code.decode(corrupted);
        EXPECT_NE(r.status, DecodeStatus::NoError);
        if (r.status == DecodeStatus::Corrected && !(r.data == data))
            ++miscorrections;
    }
    // Realistic SEC behaviour: most double errors alias to a
    // "correction" of an innocent third bit.
    EXPECT_GT(miscorrections, 100);
}

TEST(HammingSec, ExtractDataIgnoresCorrection)
{
    Rng rng(4);
    HammingSec code(64);
    const BitVec data = randomData(64, rng);
    BitVec cw = code.encode(data);
    EXPECT_TRUE(code.extractData(cw) == data);
    // Flipping a parity bit leaves extracted raw data untouched.
    cw.flip(0); // Position 1 is a parity bit.
    EXPECT_TRUE(code.extractData(cw) == data);
}

TEST(OnDieEcc, SingleRawFlipInvisible)
{
    // Observation in Section 5.4: on-die ECC makes single-bit errors
    // rare because any true single-bit error is immediately corrected.
    OnDieEcc ecc(128);
    const BitVec data(128, 0xA5);
    OnDieEccStats stats;
    for (std::size_t bit = 0; bit < ecc.codeBits(); ++bit) {
        const BitVec seen = ecc.readWithFlips(data, {bit}, &stats);
        EXPECT_TRUE(seen == data);
    }
    EXPECT_EQ(stats.corrections,
              static_cast<long>(ecc.codeBits()));
}

TEST(OnDieEcc, DoubleRawFlipEscapes)
{
    OnDieEcc ecc(128);
    const BitVec data(128, 0x00);
    Rng rng(7);
    int observable = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto b1 = rng.uniformInt(0, ecc.codeBits() - 1);
        auto b2 = rng.uniformInt(0, ecc.codeBits() - 1);
        while (b2 == b1)
            b2 = rng.uniformInt(0, ecc.codeBits() - 1);
        const BitVec seen = ecc.readWithFlips(data, {b1, b2});
        if (!(seen == data))
            ++observable;
    }
    // Two raw flips exceed SEC strength; nearly all must be observable
    // (possibly with extra miscorrected bits).
    EXPECT_GT(observable, 180);
}

TEST(OnDieEcc, MiscorrectionCanAddThirdFlip)
{
    // Find a double flip whose decode yields three observed data flips:
    // the decoder corrupting an error-free bit (Section 5.4).
    OnDieEcc ecc(128);
    const BitVec data(128, 0xFF);
    bool found = false;
    for (std::size_t b1 = 3; b1 < 40 && !found; ++b1) {
        for (std::size_t b2 = b1 + 1; b2 < 40 && !found; ++b2) {
            const BitVec seen = ecc.readWithFlips(data, {b1, b2});
            const std::size_t flips = (seen ^ data).popcount();
            if (flips == 3)
                found = true;
        }
    }
    EXPECT_TRUE(found);
}

/**
 * Bit-serial reference decoder: the textbook per-bit loop the word-
 * parallel implementation replaced. The fuzz tests below pin the fast
 * paths (column-mask syndrome, segment scatter/gather, the O(k)
 * readWithFlips shortcut) against it.
 */
DecodeResult
bitSerialDecode(std::size_t data_bits, const BitVec &codeword)
{
    std::size_t parity_bits = 0;
    while ((1ULL << parity_bits) < data_bits + parity_bits + 1)
        ++parity_bits;
    const std::size_t code_bits = data_bits + parity_bits;

    std::size_t syndrome = 0;
    for (std::size_t pos = 1; pos <= code_bits; ++pos) {
        if (codeword.get(pos - 1))
            syndrome ^= pos;
    }

    DecodeResult result;
    BitVec corrected = codeword;
    if (syndrome == 0) {
        result.status = DecodeStatus::NoError;
    } else if (syndrome <= code_bits) {
        corrected.flip(syndrome - 1);
        result.status = DecodeStatus::Corrected;
        result.correctedBit = static_cast<long>(syndrome - 1);
    } else {
        result.status = DecodeStatus::DetectedOnly;
    }

    result.data = BitVec(data_bits);
    std::size_t data_idx = 0;
    for (std::size_t pos = 1; pos <= code_bits; ++pos) {
        if ((pos & (pos - 1)) == 0)
            continue; // Parity position.
        result.data.set(data_idx++, corrected.get(pos - 1));
    }
    return result;
}

class WordParallelFuzz : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WordParallelFuzz, DecodeMatchesBitSerialUpTo3Flips)
{
    const std::size_t width = GetParam();
    HammingSec code(width);
    Rng rng(101 + width);
    for (int trial = 0; trial < 400; ++trial) {
        const BitVec data = randomData(width, rng);
        BitVec cw = code.encode(data);
        // Bit-serial reference on the clean word first.
        {
            const DecodeResult ref = bitSerialDecode(width, cw);
            EXPECT_EQ(ref.status, DecodeStatus::NoError);
            EXPECT_TRUE(ref.data == data);
        }
        const auto nflips = rng.uniformInt(0, 3);
        std::vector<std::size_t> flips;
        for (std::uint64_t f = 0; f < nflips; ++f) {
            flips.push_back(static_cast<std::size_t>(
                rng.uniformInt(0, code.codeBits() - 1)));
        }
        for (std::size_t bit : flips)
            cw.flip(bit);

        const DecodeResult fast = code.decode(cw);
        const DecodeResult ref = bitSerialDecode(width, cw);
        EXPECT_EQ(fast.status, ref.status);
        EXPECT_EQ(fast.correctedBit, ref.correctedBit);
        EXPECT_TRUE(fast.data == ref.data);
    }
}

TEST_P(WordParallelFuzz, ReadWithFlipsMatchesBitSerialUpTo3Flips)
{
    const std::size_t width = GetParam();
    OnDieEcc ecc(width);
    HammingSec code(width);
    Rng rng(202 + width);
    for (int trial = 0; trial < 400; ++trial) {
        const BitVec data = randomData(width, rng);
        // Distinct bits: readWithFlips has set semantics (a cell leaks
        // once), so the flip-per-entry reference below requires each
        // stored bit to appear at most once.
        const auto nflips = rng.uniformInt(0, 3);
        std::vector<std::size_t> flips;
        while (flips.size() < nflips) {
            const auto bit = static_cast<std::size_t>(
                rng.uniformInt(0, ecc.codeBits() - 1));
            if (std::find(flips.begin(), flips.end(), bit) == flips.end())
                flips.push_back(bit);
        }

        const BitVec fast = ecc.readWithFlips(data, flips);

        BitVec stored = code.encode(data);
        for (std::size_t bit : flips)
            stored.flip(bit);
        const DecodeResult ref = bitSerialDecode(width, stored);
        EXPECT_TRUE(fast == ref.data);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, WordParallelFuzz,
                         ::testing::Values(std::size_t{16},
                                           std::size_t{64},
                                           std::size_t{128}));

TEST(OnDieEcc, FlipIndexOutOfRangePanics)
{
    OnDieEcc ecc(128);
    const BitVec data(128, 0x00);
    EXPECT_THROW(ecc.readWithFlips(data, {136}),
                 rowhammer::util::PanicError);
}

} // namespace
