#include "requests.hh"

#include "util/serialize.hh"
#include "util/stats.hh"

namespace rowhammer::service
{

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
    w.list(chips, [](util::ByteWriter &out,
                     const fault::ChipInstance &chip) {
        chip.serialize(out);
    });
    return w.bytes();
}

bool
HcFirstRequest::decode(const std::string &bytes, HcFirstRequest &out)
{
    util::ByteReader r(bytes);
    out.seed = r.u64();
    out.options = charlib::HcFirstOptions::deserialize(r);
    out.geometry = fault::ChipGeometry::deserialize(r);
    out.chips = r.list(fault::ChipInstance::deserialize);
    return r.done();
}

std::string
encodeFig10Points(const std::vector<core::SweepPoint> &points)
{
    util::ByteWriter w;
    w.list(points, [](util::ByteWriter &out, const core::SweepPoint &p) {
        out.i64(static_cast<int>(p.kind));
        out.f64(p.hcFirst);
        out.u8(p.evaluated ? 1 : 0);
        p.normalizedPerformance.serialize(out);
        p.bandwidthOverheadPercent.serialize(out);
        p.droppedWritebacks.serialize(out);
    });
    return w.bytes();
}

bool
decodeFig10Points(const std::string &bytes,
                  std::vector<core::SweepPoint> &out)
{
    util::ByteReader r(bytes);
    out = r.list([](util::ByteReader &in) {
        core::SweepPoint p;
        p.kind = static_cast<mitigation::Kind>(in.i64());
        p.hcFirst = in.f64();
        p.evaluated = in.u8() != 0;
        p.normalizedPerformance = util::RunningStat::deserialize(in);
        p.bandwidthOverheadPercent = util::RunningStat::deserialize(in);
        p.droppedWritebacks = util::RunningStat::deserialize(in);
        return p;
    });
    return r.done();
}

std::string
encodeSweepCells(const std::vector<attack::SweepCell> &cells)
{
    util::ByteWriter w;
    w.list(cells, [](util::ByteWriter &out, const attack::SweepCell &c) {
        c.serialize(out);
    });
    return w.bytes();
}

bool
decodeSweepCells(const std::string &bytes,
                 std::vector<attack::SweepCell> &out)
{
    util::ByteReader r(bytes);
    out = r.list(attack::SweepCell::deserialize);
    return r.done();
}

std::string
encodeHcFirstResults(
    const std::vector<std::optional<std::int64_t>> &results)
{
    util::ByteWriter w;
    w.list(results, [](util::ByteWriter &out,
                       const std::optional<std::int64_t> &hc) {
        out.optI64(hc);
    });
    return w.bytes();
}

bool
decodeHcFirstResults(const std::string &bytes,
                     std::vector<std::optional<std::int64_t>> &out)
{
    util::ByteReader r(bytes);
    out = r.list([](util::ByteReader &in) { return in.optI64(); });
    return r.done();
}

} // namespace rowhammer::service
