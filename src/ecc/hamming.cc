#include "hamming.hh"

#include <bit>

#include "util/logging.hh"

namespace rowhammer::ecc
{

namespace
{

bool
isPowerOfTwo(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

HammingSec::HammingSec(std::size_t data_bits) : dataBits_(data_bits)
{
    if (data_bits == 0)
        util::fatal("HammingSec: data width must be positive");

    // Smallest r with 2^r >= data_bits + r + 1.
    std::size_t r = 0;
    while ((1ULL << r) < data_bits + r + 1)
        ++r;
    parityBits_ = r;

    positionToData_.assign(codeBits() + 1, -1);
    dataPosition_.reserve(dataBits_);
    std::size_t data_idx = 0;
    for (std::size_t pos = 1; pos <= codeBits(); ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        dataPosition_.push_back(pos);
        positionToData_[pos] = static_cast<long>(data_idx++);
    }

    // Data positions are contiguous between consecutive power-of-two
    // parity positions; record the runs for word-level scatter/gather.
    for (std::size_t i = 0; i < dataBits_;) {
        std::size_t len = 1;
        while (i + len < dataBits_ &&
               dataPosition_[i + len] == dataPosition_[i] + len) {
            ++len;
        }
        segments_.push_back(Segment{dataPosition_[i] - 1, i, len});
        i += len;
    }

    codeWords_ = (codeBits() + 63) / 64;
    columnMask_.assign(parityBits_ * codeWords_, 0);
    for (std::size_t i = 0; i < codeBits(); ++i) {
        const std::size_t pos = i + 1;
        for (std::size_t j = 0; j < parityBits_; ++j) {
            if ((pos >> j) & 1) {
                columnMask_[j * codeWords_ + i / 64] |= 1ULL
                    << (i % 64);
            }
        }
    }
}

std::size_t
HammingSec::syndromeOf(const util::BitVec &codeword) const
{
    if (codeword.size() != codeBits())
        util::panic("HammingSec::syndromeOf: codeword width mismatch");
    const auto &words = codeword.words();
    std::size_t syndrome = 0;
    for (std::size_t j = 0; j < parityBits_; ++j) {
        const std::uint64_t *mask = &columnMask_[j * codeWords_];
        std::uint64_t acc = 0;
        for (std::size_t w = 0; w < codeWords_; ++w)
            acc ^= words[w] & mask[w];
        syndrome |= static_cast<std::size_t>(std::popcount(acc) & 1)
            << j;
    }
    return syndrome;
}

util::BitVec
HammingSec::encode(const util::BitVec &data) const
{
    if (data.size() != dataBits_)
        util::panic("HammingSec::encode: data width mismatch");

    // Codeword indexed 0-based as position-1.
    util::BitVec code(codeBits());
    for (const Segment &seg : segments_)
        code.setRange(seg.codeStart, data, seg.dataStart, seg.length);
    // Each parity bit p at position 2^j makes the syndrome zero; with
    // parity positions still clear, the data-only syndrome is exactly
    // the parity pattern to store.
    const std::size_t syndrome = syndromeOf(code);
    for (std::size_t j = 0; j < parityBits_; ++j) {
        if ((syndrome >> j) & 1)
            code.set((1ULL << j) - 1, true);
    }
    return code;
}

DecodeResult
HammingSec::decode(const util::BitVec &codeword) const
{
    if (codeword.size() != codeBits())
        util::panic("HammingSec::decode: codeword width mismatch");

    const std::size_t syndrome = syndromeOf(codeword);

    DecodeResult result;
    result.data = extractData(codeword);
    if (syndrome == 0) {
        result.status = DecodeStatus::NoError;
    } else if (syndrome <= codeBits()) {
        // Either a true single-bit error or an aliased multi-bit error:
        // the decoder cannot tell, and flips the indicated position.
        result.status = DecodeStatus::Corrected;
        result.correctedBit = static_cast<long>(syndrome - 1);
        const long data_idx = positionToData_[syndrome];
        if (data_idx >= 0)
            result.data.flip(static_cast<std::size_t>(data_idx));
    } else {
        // Invalid syndrome (points beyond the codeword): detectable but
        // uncorrectable; the word passes through unmodified.
        result.status = DecodeStatus::DetectedOnly;
    }
    return result;
}

util::BitVec
HammingSec::extractData(const util::BitVec &codeword) const
{
    if (codeword.size() != codeBits())
        util::panic("HammingSec::extractData: codeword width mismatch");
    util::BitVec data(dataBits_);
    for (const Segment &seg : segments_)
        data.setRange(seg.dataStart, codeword, seg.codeStart, seg.length);
    return data;
}

DecodeStatus
HammingSec::decodeWithFlips(util::BitVec &data_io,
                            const std::vector<std::size_t> &flips,
                            long *corrected_bit) const
{
    if (data_io.size() != dataBits_)
        util::panic("HammingSec::decodeWithFlips: data width mismatch");

    // Clean codewords have syndrome zero, so the corrupted codeword's
    // syndrome is the XOR of the flipped positions alone; data-position
    // flips land directly in the observed data word.
    std::size_t syndrome = 0;
    for (std::size_t bit : flips) {
        if (bit >= codeBits())
            util::panic("HammingSec::decodeWithFlips: flip index out "
                        "of range");
        syndrome ^= bit + 1;
        const long data_idx = positionToData_[bit + 1];
        if (data_idx >= 0)
            data_io.flip(static_cast<std::size_t>(data_idx));
    }

    if (corrected_bit)
        *corrected_bit = -1;
    if (syndrome == 0)
        return DecodeStatus::NoError;
    if (syndrome <= codeBits()) {
        if (corrected_bit)
            *corrected_bit = static_cast<long>(syndrome - 1);
        const long data_idx = positionToData_[syndrome];
        if (data_idx >= 0)
            data_io.flip(static_cast<std::size_t>(data_idx));
        return DecodeStatus::Corrected;
    }
    return DecodeStatus::DetectedOnly;
}

} // namespace rowhammer::ecc
