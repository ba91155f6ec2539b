#include "requests.hh"

#include "util/serialize.hh"
#include "util/stats.hh"

namespace rowhammer::service
{

namespace
{

/** List sizes above this are rejected as garbage (a corrupt count
 *  field must not drive a multi-GB allocation). */
constexpr std::uint32_t kMaxListEntries = 1u << 20;

} // namespace

std::string
Fig10Request::encode() const
{
    util::ByteWriter w;
    config.serialize(w);
    w.f64Vec(hcFirsts);
    return w.bytes();
}

bool
Fig10Request::decode(const std::string &bytes, Fig10Request &out)
{
    util::ByteReader r(bytes);
    out.config = core::ExperimentConfig::deserialize(r);
    out.hcFirsts = r.f64Vec();
    return r.done();
}

std::string
AttackSweepRequest::encode() const
{
    util::ByteWriter w;
    config.serialize(w);
    return w.bytes();
}

bool
AttackSweepRequest::decode(const std::string &bytes,
                           AttackSweepRequest &out)
{
    util::ByteReader r(bytes);
    out.config = attack::SweepConfig::deserialize(r);
    return r.done();
}

std::string
HcFirstRequest::encode() const
{
    util::ByteWriter w;
    w.u64(seed);
    options.serialize(w);
    geometry.serialize(w);
    w.u32(static_cast<std::uint32_t>(chips.size()));
    for (const auto &chip : chips)
        chip.serialize(w);
    return w.bytes();
}

bool
HcFirstRequest::decode(const std::string &bytes, HcFirstRequest &out)
{
    util::ByteReader r(bytes);
    out.seed = r.u64();
    out.options = charlib::HcFirstOptions::deserialize(r);
    out.geometry = fault::ChipGeometry::deserialize(r);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > kMaxListEntries)
        return false;
    out.chips.clear();
    out.chips.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        out.chips.push_back(fault::ChipInstance::deserialize(r));
        if (!r.ok())
            return false;
    }
    return r.done();
}

std::string
encodeFig10Points(const std::vector<core::SweepPoint> &points)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(points.size()));
    for (const auto &p : points) {
        w.i64(static_cast<int>(p.kind));
        w.f64(p.hcFirst);
        w.u8(p.evaluated ? 1 : 0);
        p.normalizedPerformance.serialize(w);
        p.bandwidthOverheadPercent.serialize(w);
        p.droppedWritebacks.serialize(w);
    }
    return w.bytes();
}

bool
decodeFig10Points(const std::string &bytes,
                  std::vector<core::SweepPoint> &out)
{
    util::ByteReader r(bytes);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > kMaxListEntries)
        return false;
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        core::SweepPoint p;
        p.kind = static_cast<mitigation::Kind>(r.i64());
        p.hcFirst = r.f64();
        p.evaluated = r.u8() != 0;
        p.normalizedPerformance = util::RunningStat::deserialize(r);
        p.bandwidthOverheadPercent = util::RunningStat::deserialize(r);
        p.droppedWritebacks = util::RunningStat::deserialize(r);
        if (!r.ok())
            return false;
        out.push_back(p);
    }
    return r.done();
}

std::string
encodeSweepCells(const std::vector<attack::SweepCell> &cells)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(cells.size()));
    for (const auto &c : cells) {
        w.str(c.pattern);
        w.str(c.mechanism);
        w.i64(c.activations);
        w.i64(c.flips);
        w.i64(c.mitigationRefreshes);
    }
    return w.bytes();
}

bool
decodeSweepCells(const std::string &bytes,
                 std::vector<attack::SweepCell> &out)
{
    util::ByteReader r(bytes);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > kMaxListEntries)
        return false;
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        attack::SweepCell c;
        c.pattern = r.str();
        c.mechanism = r.str();
        c.activations = r.i64();
        c.flips = r.i64();
        c.mitigationRefreshes = r.i64();
        if (!r.ok())
            return false;
        out.push_back(std::move(c));
    }
    return r.done();
}

std::string
encodeHcFirstResults(
    const std::vector<std::optional<std::int64_t>> &results)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(results.size()));
    for (const auto &hc : results) {
        w.u8(hc ? 1 : 0);
        w.i64(hc.value_or(0));
    }
    return w.bytes();
}

bool
decodeHcFirstResults(const std::string &bytes,
                     std::vector<std::optional<std::int64_t>> &out)
{
    util::ByteReader r(bytes);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > kMaxListEntries)
        return false;
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const bool present = r.u8() != 0;
        const std::int64_t value = r.i64();
        if (!r.ok())
            return false;
        out.push_back(present ? std::optional<std::int64_t>(value)
                              : std::nullopt);
    }
    return r.done();
}

} // namespace rowhammer::service
