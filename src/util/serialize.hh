/**
 * @file
 * Binary serialization helpers for the run-description schema and the
 * checkpoint record store: a little-endian ByteWriter/ByteReader pair
 * and the FNV-1a content hash that keys RunStore files.
 *
 * The encoding is deliberately dumb — fixed-width little-endian
 * integers, bit-exact doubles, length-prefixed strings — because the
 * contract is bit-stability: a config's serialized bytes (and therefore
 * its hash()) must not depend on platform or build flags, and a stored
 * double must read back as the exact value the interrupted run
 * computed, so a resumed sweep is byte-identical to an uninterrupted
 * one.
 */

#ifndef ROWHAMMER_UTIL_SERIALIZE_HH
#define ROWHAMMER_UTIL_SERIALIZE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace rowhammer::util
{

/** Append-only little-endian binary encoder. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }

    /** A maybe-value: a presence byte, then the value (0 if absent). */
    void optI64(const std::optional<std::int64_t> &v)
    {
        u8(v ? 1 : 0);
        i64(v.value_or(0));
    }

    /** A u32 count, then item(*this, x) for every x in order. */
    template <class T, class Item>
    void list(const std::vector<T> &v, Item &&item)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (const T &x : v)
            item(*this, x);
    }

    void maskVec(const std::vector<std::uint64_t> &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (std::uint64_t m : v)
            u64(m);
    }

    void intVec(const std::vector<int> &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (int x : v)
            i64(x);
    }

    void f64Vec(const std::vector<double> &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (double x : v)
            f64(x);
    }

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Decoder over a byte string. Underruns never throw: reads past the
 * end return zero values and latch ok() == false, so a checkpoint
 * record from an incompatible build decodes to a recognizable failure
 * (the caller recomputes) instead of a crash.
 */
class ByteReader
{
  public:
    /** list() rejects counts above this as garbage: a corrupt count
     *  field must not drive a multi-GB allocation. */
    static constexpr std::uint32_t kMaxListEntries = 1u << 20;

    explicit ByteReader(const std::string &bytes) : bytes_(bytes) {}

    /** The reader only borrows the bytes; constructing one from a
     *  temporary would read freed memory on the first u8(). */
    explicit ByteReader(std::string &&) = delete;

    [[nodiscard]] std::uint8_t u8()
    {
        if (pos_ >= bytes_.size()) {
            ok_ = false;
            return 0;
        }
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    [[nodiscard]] std::uint32_t u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    [[nodiscard]] std::uint64_t u64()
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    [[nodiscard]] std::int64_t i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    [[nodiscard]] double f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    [[nodiscard]] std::string str()
    {
        const std::uint32_t n = u32();
        if (bytes_.size() - pos_ < n) {
            ok_ = false;
            return {};
        }
        std::string out = bytes_.substr(pos_, n);
        pos_ += n;
        return out;
    }

    [[nodiscard]] std::optional<std::int64_t> optI64()
    {
        const bool present = u8() != 0;
        const std::int64_t v = i64();
        return present ? std::optional<std::int64_t>(v) : std::nullopt;
    }

    /**
     * The inverse of ByteWriter::list: a u32 count (at most
     * kMaxListEntries), then item(*this) per entry. Stops at the first
     * underrun; a rejected count or an underrun latches ok() == false.
     */
    template <class Item>
    [[nodiscard]] auto list(Item &&item)
        -> std::vector<decltype(item(*this))>
    {
        const std::uint32_t n = u32();
        if (n > kMaxListEntries)
            ok_ = false;
        std::vector<decltype(item(*this))> out;
        if (!ok_)
            return out;
        // Every entry takes at least one byte, so the input bounds the
        // allocation even when the count is a lie.
        out.reserve(std::min<std::size_t>(n, bytes_.size() - pos_));
        for (std::uint32_t i = 0; i < n && ok_; ++i)
            out.push_back(item(*this));
        return out;
    }

    [[nodiscard]] std::vector<double> f64Vec()
    {
        const std::uint32_t n = u32();
        if ((bytes_.size() - pos_) / 8 < n) {
            ok_ = false;
            return {};
        }
        std::vector<double> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            out.push_back(f64());
        return out;
    }

    [[nodiscard]] std::vector<std::uint64_t> maskVec()
    {
        const std::uint32_t n = u32();
        if ((bytes_.size() - pos_) / 8 < n) {
            ok_ = false;
            return {};
        }
        std::vector<std::uint64_t> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            out.push_back(u64());
        return out;
    }

    [[nodiscard]] std::vector<int> intVec()
    {
        const std::uint32_t n = u32();
        if ((bytes_.size() - pos_) / 8 < n) {
            ok_ = false;
            return {};
        }
        std::vector<int> out;
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            out.push_back(static_cast<int>(i64()));
        return out;
    }

    /** True iff no read has run past the end so far. */
    [[nodiscard]] bool ok() const { return ok_; }

    /** True iff every byte was consumed and no read underran. */
    [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

  private:
    const std::string &bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** FNV-1a over a byte string (the content hash keying RunStore files). */
[[nodiscard]] inline std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_SERIALIZE_HH
