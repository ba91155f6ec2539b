/**
 * @file
 * Hamming single-error-correcting codes over an arbitrary data width: the
 * inner code of the LPDDR4 on-die (136,128) ECC model. (The paper's
 * rank-level ECC study, Figure 9, needs no code model: it measures the
 * hammer count to the first word with k flips, see charlib/hcfirst.hh.)
 *
 * Decoding deliberately models the *real* behaviour of a SEC decoder fed
 * more errors than it can correct: the syndrome aliases onto some valid
 * single-bit pattern and the decoder "corrects" a bit that was never
 * wrong (a miscorrection), or the syndrome is invalid and the decoder
 * leaves the word alone. Section 5.4 of the paper leans on exactly this
 * undefined behaviour to explain LPDDR4 observations.
 *
 * The implementation is word-parallel: the syndrome is a parity-of-AND
 * reduction of the codeword against precomputed 64-bit column masks
 * (one mask per syndrome bit), and data bits move between data and
 * codeword layouts as contiguous bit-range copies (data positions are
 * contiguous between consecutive power-of-two parity positions), never
 * bit by bit.
 */

#ifndef ROWHAMMER_ECC_HAMMING_HH
#define ROWHAMMER_ECC_HAMMING_HH

#include <cstddef>
#include <vector>

#include "util/bitvec.hh"

namespace rowhammer::ecc
{

/** Outcome of a decode attempt. */
enum class DecodeStatus
{
    NoError,       ///< Syndrome clean; data returned as stored.
    Corrected,     ///< A single bit was corrected (possibly a miscorrection
                   ///< if the true error count exceeded the code strength).
    DetectedOnly,  ///< Error detected but not corrected (invalid
                   ///< syndrome).
};

/** Result of decoding one codeword. */
struct DecodeResult
{
    util::BitVec data;   ///< Decoded data bits (width = dataBits()).
    DecodeStatus status = DecodeStatus::NoError;
    /** Codeword bit index the decoder flipped, or -1. */
    long correctedBit = -1;
};

/**
 * Classic position-coded Hamming SEC over k data bits. Parity bits sit at
 * power-of-two codeword positions (1-based), data bits fill the rest.
 */
class HammingSec
{
  public:
    /** Build the code for the given data width (e.g. 64 or 128). */
    explicit HammingSec(std::size_t data_bits);

    std::size_t dataBits() const { return dataBits_; }
    std::size_t parityBits() const { return parityBits_; }
    std::size_t codeBits() const { return dataBits_ + parityBits_; }

    /** Encode data (width dataBits()) into a codeword (width codeBits()). */
    util::BitVec encode(const util::BitVec &data) const;

    /**
     * Decode a (possibly corrupted) codeword. Single-bit errors are
     * corrected exactly; multi-bit errors produce the realistic aliasing
     * behaviour documented in the file header.
     */
    DecodeResult decode(const util::BitVec &codeword) const;

    /** Extract the data bits of a codeword without any correction. */
    util::BitVec extractData(const util::BitVec &codeword) const;

    /**
     * Syndrome of a codeword: XOR of the 1-based positions of its set
     * bits. 0 = clean; 1..codeBits() = the position a SEC decoder would
     * flip; above codeBits() = invalid (detectable, uncorrectable).
     */
    std::size_t syndromeOf(const util::BitVec &codeword) const;

    /**
     * Fast path for the fault-model read: decode the codeword
     * `encode(data) ^ flips` without materializing it. By linearity the
     * syndrome is just the XOR of the flipped positions (the clean
     * codeword's syndrome is zero), so the cost is O(|flips|) plus one
     * data-word copy. `data_io` carries the written data in and the
     * post-correction data out; behaviour (including miscorrection and
     * pass-through) is bit-identical to encode + decode.
     *
     * @param data_io In: written data. Out: data a reader observes.
     * @param flips Codeword bit indices with raw errors (duplicates
     *     cancel, exactly as repeated flip() calls would).
     * @param corrected_bit Optional out: codeword bit the decoder
     *     flipped, or -1.
     * @returns The decode status.
     */
    DecodeStatus decodeWithFlips(util::BitVec &data_io,
                                 const std::vector<std::size_t> &flips,
                                 long *corrected_bit = nullptr) const;

  private:
    /** A run of data bits occupying contiguous codeword positions. */
    struct Segment
    {
        std::size_t codeStart; ///< 0-based codeword bit index.
        std::size_t dataStart; ///< Data bit index.
        std::size_t length;
    };

    std::size_t dataBits_;
    std::size_t parityBits_;
    /** 1-based codeword position of each data bit. */
    std::vector<std::size_t> dataPosition_;
    /** Map 1-based position -> data index, or -1 for parity positions. */
    std::vector<long> positionToData_;
    /** Contiguous data runs for word-level scatter/gather. */
    std::vector<Segment> segments_;
    /**
     * Column masks: columnMask_[j * codeWords_ + w] selects the codeword
     * bits (in packed word w) whose 1-based position has bit j set, so
     * syndrome bit j = parity(popcount of the AND reduction).
     */
    std::vector<std::uint64_t> columnMask_;
    std::size_t codeWords_;
};

} // namespace rowhammer::ecc

#endif // ROWHAMMER_ECC_HAMMING_HH
