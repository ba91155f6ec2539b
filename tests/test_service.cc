/**
 * @file
 * Campaign-daemon service-layer tests, all over in-memory transports
 * (no sockets — TSan/ASan friendly):
 *  - wire protocol: frame encode/decode, header validation, CRC
 *    checks, and corruption fuzz (a damaged frame must decode to a
 *    typed failure, never UB or a crash);
 *  - request/result codecs: bit-stable round-trips, truncation fuzz;
 *  - engine: memo hit/miss with byte-identical cached replies,
 *    deadline -> DeadlineExceeded, drain -> ShuttingDown, ENOSPC ->
 *    degraded-but-serving;
 *  - serveConnection: good requests, torn/garbage frames answered with
 *    typed errors, bounded admission shedding RetryLater;
 *  - client: single-attempt calls, retry schedule with deterministic
 *    jitter, attempt budget, terminal-vs-transient status handling.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "attack/sweep.hh"
#include "charlib/runner.hh"
#include "core/experiment.hh"
#include "fault/population.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/protocol.hh"
#include "service/requests.hh"
#include "service/server.hh"
#include "util/io.hh"
#include "util/serialize.hh"
#include "util/transport.hh"

namespace
{

using namespace rowhammer;
using namespace rowhammer::service;

/** Unique scratch directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        char templ[] = "/tmp/rh_service_XXXXXX";
        path_ = mkdtemp(templ);
        EXPECT_FALSE(path_.empty());
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A fast-but-nonzero Figure 10 run description. */
Fig10Request
tinyFig10()
{
    Fig10Request req;
    req.config.system.cores = 2;
    req.config.system.organization.rows = 128;
    req.config.system.llcBytes = 128 * 1024;
    req.config.coldBytesPerApp = 256 * 1024;
    req.config.instructionsPerCore = 2000;
    req.config.warmupInstructions = 200;
    req.config.mixCount = 1;
    req.hcFirsts = {2000};
    return req;
}

// ------------------------------------------------------------ protocol

TEST(Protocol, FrameRoundTrip)
{
    const std::string payload = "some request bytes";
    const std::string frame = encodeFrame(MsgType::Fig10, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

    std::string why;
    const auto h = decodeFrameHeader(frame.substr(0, kFrameHeaderBytes),
                                     why);
    ASSERT_TRUE(h.has_value()) << why;
    EXPECT_EQ(h->type, MsgType::Fig10);
    EXPECT_EQ(h->payloadLen, payload.size());
    EXPECT_TRUE(checkPayload(*h, payload));
    EXPECT_FALSE(checkPayload(*h, payload + "x"));
}

TEST(Protocol, HeaderRejectsGarbageWithReasons)
{
    std::string why;
    EXPECT_FALSE(decodeFrameHeader("short", why).has_value());
    EXPECT_NE(why.find("short"), std::string::npos);

    util::ByteWriter bad_magic;
    bad_magic.u32(0x12345678u);
    bad_magic.u32(kProtocolVersion);
    bad_magic.u32(1);
    bad_magic.u32(0);
    bad_magic.u32(0);
    EXPECT_FALSE(decodeFrameHeader(bad_magic.bytes(), why).has_value());
    EXPECT_NE(why.find("magic"), std::string::npos);

    util::ByteWriter bad_version;
    bad_version.u32(kProtocolMagic);
    bad_version.u32(kProtocolVersion + 7);
    bad_version.u32(1);
    bad_version.u32(0);
    bad_version.u32(0);
    EXPECT_FALSE(
        decodeFrameHeader(bad_version.bytes(), why).has_value());
    EXPECT_NE(why.find("version"), std::string::npos);

    util::ByteWriter bad_type;
    bad_type.u32(kProtocolMagic);
    bad_type.u32(kProtocolVersion);
    bad_type.u32(999);
    bad_type.u32(0);
    bad_type.u32(0);
    EXPECT_FALSE(decodeFrameHeader(bad_type.bytes(), why).has_value());
    EXPECT_NE(why.find("type"), std::string::npos);

    util::ByteWriter oversized;
    oversized.u32(kProtocolMagic);
    oversized.u32(kProtocolVersion);
    oversized.u32(1);
    oversized.u32(kMaxPayloadBytes + 1);
    oversized.u32(0);
    EXPECT_FALSE(decodeFrameHeader(oversized.bytes(), why).has_value());
    EXPECT_NE(why.find("length"), std::string::npos);
}

TEST(Protocol, HeaderBitFlipFuzzNeverCrashes)
{
    const std::string frame = encodeFrame(MsgType::Ping, "p");
    const std::string header = frame.substr(0, kFrameHeaderBytes);
    for (std::size_t byte = 0; byte < header.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = header;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            std::string why;
            // Either rejected with a reason, or decoded — never UB.
            const auto h = decodeFrameHeader(damaged, why);
            if (!h) {
                EXPECT_FALSE(why.empty());
            }
        }
    }
}

TEST(Protocol, ReplyRoundTripAndRejects)
{
    Reply reply;
    reply.status = Status::RetryLater;
    reply.cached = true;
    reply.message = "busy";
    reply.result = std::string("\x00\x01\xFF", 3);

    Reply out;
    ASSERT_TRUE(decodeReply(encodeReply(reply), out));
    EXPECT_EQ(out.status, Status::RetryLater);
    EXPECT_TRUE(out.cached);
    EXPECT_EQ(out.message, "busy");
    EXPECT_EQ(out.result, reply.result);

    EXPECT_FALSE(decodeReply("", out));
    EXPECT_FALSE(decodeReply("xx", out));
    // Trailing bytes mean a codec mismatch: reject.
    EXPECT_FALSE(decodeReply(encodeReply(reply) + "tail", out));
}

TEST(Protocol, RequestPayloadPrefixSplits)
{
    const std::string payload = encodeRequestPayload(1500, "config");
    std::uint32_t deadline = 0;
    std::string config;
    ASSERT_TRUE(decodeRequestPayload(payload, deadline, config));
    EXPECT_EQ(deadline, 1500u);
    EXPECT_EQ(config, "config");
    EXPECT_FALSE(decodeRequestPayload("xy", deadline, config));
}

// ------------------------------------------------------------- codecs

TEST(RequestCodec, Fig10RoundTripAndTruncationFuzz)
{
    Fig10Request req = tinyFig10();
    req.config.mixIndices = {3, 1, 4};
    const std::string bytes = util::encode(req);

    Fig10Request out;
    ASSERT_TRUE(util::decode(bytes, out));
    EXPECT_EQ(out.config.hash(), req.config.hash());
    EXPECT_EQ(out.hcFirsts, req.hcFirsts);
    EXPECT_EQ(out.config.mixIndices, req.config.mixIndices);

    // Every truncation must be rejected, never crash or misdecode.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        Fig10Request torn;
        EXPECT_FALSE(util::decode(bytes.substr(0, cut), torn))
            << "accepted truncation at " << cut;
    }
    // Trailing garbage is a codec mismatch, not a longer request.
    Fig10Request padded;
    EXPECT_FALSE(util::decode(bytes + "x", padded));
}

TEST(RequestCodec, HcFirstRoundTrip)
{
    HcFirstRequest req;
    req.seed = 77;
    req.options.sampleRows = 6;
    req.geometry.banks = 2;
    req.geometry.rows = 1024;
    req.geometry.rowDataBits = 16384;
    req.chips = fault::sampleConfigChips(fault::TypeNode::DDR4New,
                                         fault::Manufacturer::A, 2020,
                                         2);
    ASSERT_FALSE(req.chips.empty());

    HcFirstRequest out;
    ASSERT_TRUE(util::decode(util::encode(req), out));
    EXPECT_EQ(out.seed, 77u);
    EXPECT_EQ(out.chips.size(), req.chips.size());
    // Bit-stable: re-encoding reproduces the wire bytes exactly.
    EXPECT_EQ(util::encode(out), util::encode(req));
}

TEST(ResultCodec, HcFirstResultsRoundTrip)
{
    const std::vector<std::optional<std::int64_t>> results{
        std::nullopt, 4800, std::nullopt, 139000};
    std::vector<std::optional<std::int64_t>> out;
    ASSERT_TRUE(util::decode(util::encode(results, hcFirstResultsWire), out,
                             hcFirstResultsWire));
    EXPECT_EQ(out, results);

    EXPECT_FALSE(util::decode("zz", out, hcFirstResultsWire));
}

TEST(ResultCodec, Fig10PointsRoundTripBitExact)
{
    std::vector<core::SweepPoint> points(2);
    points[0].hcFirst = 2000;
    points[0].evaluated = true;
    points[0].normalizedPerformance.add(0.1 + 0.2); // Not exact in FP.
    points[0].normalizedPerformance.add(0.99);
    points[0].bandwidthOverheadPercent.add(1e-17);
    points[1].evaluated = false;

    std::vector<core::SweepPoint> out;
    ASSERT_TRUE(util::decode(util::encode(points), out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].evaluated);
    EXPECT_EQ(out[0].normalizedPerformance.mean(),
              points[0].normalizedPerformance.mean());
    EXPECT_EQ(out[0].bandwidthOverheadPercent.min(),
              points[0].bandwidthOverheadPercent.min());
    EXPECT_FALSE(out[1].evaluated);
    // Bit-stable: re-encoding reproduces the bytes.
    EXPECT_EQ(util::encode(out), util::encode(points));
}

std::string
toHex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 0xF];
    }
    return out;
}

const attack::SweepCell kCellA{"double-sided", "TRR-4", 123456, 7, 89};
const attack::SweepCell kCellB{"8-sided@bank-xor!naive", "Ideal", -1, 0,
                               1LL << 40};

std::vector<std::optional<std::int64_t>>
pinnedHcFirsts()
{
    return {std::nullopt, 4800, -3, std::nullopt, 139000};
}

std::vector<core::SweepPoint>
pinnedPoints()
{
    std::vector<core::SweepPoint> points(2);
    points[0].kind = mitigation::Kind::PARA;
    points[0].hcFirst = 2000;
    points[0].evaluated = true;
    points[0].normalizedPerformance.add(0.1 + 0.2);
    points[0].normalizedPerformance.add(0.99);
    points[0].bandwidthOverheadPercent.add(1e-17);
    points[0].droppedWritebacks.add(3);
    points[1].kind = mitigation::Kind::Ideal;
    points[1].hcFirst = 64;
    points[1].evaluated = false;
    return points;
}

// The bytes checkpoint records and daemon replies carry. Stores and
// memos already on disk hold exactly these, so the literals are fixed:
// a codec edit that moves one byte orphans every existing store.
TEST(ResultCodec, PinnedBytes)
{
    EXPECT_EQ(toHex(util::encode(kCellA)),
              "0c000000646f75626c652d7369646564050000005452522d3440e201"
              "000000000007000000000000005900000000000000");

    util::ByteWriter opt;
    opt.optI64(4800);
    opt.optI64(std::nullopt);
    EXPECT_EQ(toHex(opt.bytes()),
              "01c012000000000000"
              "000000000000000000");

    EXPECT_EQ(toHex(util::encode(std::vector{kCellA, kCellB})),
              "020000000c000000646f75626c652d7369646564050000005452522d"
              "3440e201000000000007000000000000005900000000000000160000"
              "00382d73696465644062616e6b2d786f72216e616976650500000049"
              "6465616cffffffffffffffff00000000000000000000000000010000");

    EXPECT_EQ(toHex(util::encode(pinnedHcFirsts(), hcFirstResultsWire)),
              "0500000000000000000000000001c01200000000000001fdffffffff"
              "ffffff00000000000000000001f81e020000000000");

    EXPECT_EQ(toHex(util::encode(pinnedPoints())),
              "0200000002000000000000000000000000409f400102000000000000"
              "00a4703d0ad7a3e43fd30968226c78ce3fa4703d0ad7a3f43f343333"
              "333333d33fae47e17a14aeef3f010000000000000097d44646f50e67"
              "3c000000000000000097d44646f50e673c97d44646f50e673c97d446"
              "46f50e673c0100000000000000000000000000084000000000000000"
              "00000000000000084000000000000008400000000000000840080000"
              "00000000000000000000005040000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000f07f0000"
              "00000000f0ff00000000000000000000000000000000000000000000"
              "00000000000000000000000000000000f07f000000000000f0ff0000"
              "00000000000000000000000000000000000000000000000000000000"
              "0000000000000000f07f000000000000f0ff");
}

/** Every truncation, a trailing byte, and an oversized count must all
 *  be rejected when decoding a reply list. */
template <class T, class Schema = util::Wire>
void
expectRejectsDamage(const std::vector<T> &reply, Schema wire = {})
{
    const std::string bytes = util::encode(reply, wire);
    std::vector<T> out;
    ASSERT_TRUE(util::decode(bytes, out, wire));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(util::decode(bytes.substr(0, cut), out, wire))
            << "accepted truncation at " << cut;
    }
    EXPECT_FALSE(util::decode(bytes + "x", out, wire));
    util::ByteWriter oversized;
    oversized.u32(util::ByteReader::kMaxListEntries + 1);
    EXPECT_FALSE(
        util::decode(oversized.bytes() + bytes.substr(4), out, wire));
}

TEST(ResultCodec, ListDecodersRejectDamage)
{
    expectRejectsDamage(std::vector{kCellA, kCellB});
    expectRejectsDamage(pinnedHcFirsts(), hcFirstResultsWire);
    expectRejectsDamage(pinnedPoints());
}

// ------------------------------------------------------------- engine

TEST(Engine, MemoMissThenByteIdenticalCachedHit)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    Engine engine(config);

    const std::string payload =
        encodeRequestPayload(0, util::encode(tinyFig10()));
    const Reply cold = engine.handle(MsgType::Fig10, payload);
    ASSERT_EQ(cold.status, Status::Ok) << cold.message;
    EXPECT_FALSE(cold.cached);
    EXPECT_FALSE(cold.result.empty());

    const Reply warm = engine.handle(MsgType::Fig10, payload);
    ASSERT_EQ(warm.status, Status::Ok);
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.result, cold.result); // Byte-identical.
    EXPECT_EQ(engine.memo().size(), 1u);

    // A different deadline is execution-only: same memo entry.
    const Reply other_deadline = engine.handle(
        MsgType::Fig10, encodeRequestPayload(60000,
                                             util::encode(tinyFig10())));
    EXPECT_TRUE(other_deadline.cached);
    EXPECT_EQ(other_deadline.result, cold.result);
}

TEST(Engine, MemoPersistsAcrossEngineInstances)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    const std::string payload =
        encodeRequestPayload(0, util::encode(tinyFig10()));

    std::string cold_result;
    {
        Engine engine(config);
        cold_result = engine.handle(MsgType::Fig10, payload).result;
    }
    Engine restarted(config);
    const Reply warm = restarted.handle(MsgType::Fig10, payload);
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.result, cold_result);
}

TEST(Engine, ServesAttackSweepAndHcFirst)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    Engine engine(config);

    // Each reply decodes to exactly what the driver returns when called
    // directly, and a repeat is memo-served with the same bytes.
    attack::SweepConfig sweep;
    sweep.fuzzCount = 1;
    sweep.nSides = {4, 8};
    const std::string sweep_payload =
        encodeRequestPayload(0, util::encode(sweep));
    const Reply sweep_cold =
        engine.handle(MsgType::AttackSweep, sweep_payload);
    ASSERT_EQ(sweep_cold.status, Status::Ok) << sweep_cold.message;
    EXPECT_FALSE(sweep_cold.cached);
    std::vector<attack::SweepCell> cells;
    ASSERT_TRUE(util::decode(sweep_cold.result, cells));
    const std::vector<attack::SweepCell> direct_cells =
        attack::runSweep(sweep);
    ASSERT_EQ(cells.size(), direct_cells.size());
    EXPECT_EQ(attack::renderSweepCells(cells),
              attack::renderSweepCells(direct_cells));
    const Reply sweep_warm =
        engine.handle(MsgType::AttackSweep, sweep_payload);
    ASSERT_EQ(sweep_warm.status, Status::Ok);
    EXPECT_TRUE(sweep_warm.cached);
    EXPECT_EQ(sweep_warm.result, sweep_cold.result);

    HcFirstRequest hc;
    hc.options.sampleRows = 2;
    hc.chips = fault::sampleConfigChips(fault::TypeNode::DDR4New,
                                        fault::Manufacturer::A, 2020, 2);
    ASSERT_FALSE(hc.chips.empty());
    const std::string hc_payload =
        encodeRequestPayload(0, util::encode(hc));
    const Reply hc_cold = engine.handle(MsgType::HcFirst, hc_payload);
    ASSERT_EQ(hc_cold.status, Status::Ok) << hc_cold.message;
    EXPECT_FALSE(hc_cold.cached);
    std::vector<std::optional<std::int64_t>> results;
    ASSERT_TRUE(util::decode(hc_cold.result, results, hcFirstResultsWire));
    charlib::RunnerOptions direct;
    direct.seed = hc.seed;
    direct.threads = 1;
    charlib::PopulationRunner runner(direct);
    EXPECT_EQ(results,
              runner.measureHcFirst(hc.chips, hc.options, hc.geometry));
    const Reply hc_warm = engine.handle(MsgType::HcFirst, hc_payload);
    ASSERT_EQ(hc_warm.status, Status::Ok);
    EXPECT_TRUE(hc_warm.cached);
    EXPECT_EQ(hc_warm.result, hc_cold.result);
    EXPECT_EQ(engine.memo().size(), 2u);
}

TEST(Engine, MalformedAndUnsupportedAreTyped)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 1;
    Engine engine(config);

    EXPECT_EQ(engine.handle(MsgType::Ping, "").status, Status::Ok);
    EXPECT_EQ(engine.handle(MsgType::Reply, "").status,
              Status::UnsupportedType);
    EXPECT_EQ(engine.handle(MsgType::Fig10, "xy").status,
              Status::MalformedRequest);
    EXPECT_EQ(engine
                  .handle(MsgType::Fig10,
                          encodeRequestPayload(0, "garbage config"))
                  .status,
              Status::MalformedRequest);
    // Nothing malformed pollutes the memo.
    EXPECT_EQ(engine.memo().size(), 0u);
}

TEST(Engine, OutOfRangeMixIndexIsAnInternalError)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 1;
    Engine engine(config);

    // Decodable requests naming a mix outside the 48-mix catalogue
    // must come back typed, never take the daemon down.
    for (const int mix : {-1, 48}) {
        Fig10Request req = tinyFig10();
        req.config.mixIndices = {mix};
        const Reply reply = engine.handle(
            MsgType::Fig10, encodeRequestPayload(0, util::encode(req)));
        EXPECT_EQ(reply.status, Status::InternalError) << mix;
        EXPECT_NE(reply.message.find("mix index"), std::string::npos)
            << reply.message;
    }
    EXPECT_EQ(engine.memo().size(), 0u);

    const Reply ok = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(tinyFig10())));
    EXPECT_EQ(ok.status, Status::Ok) << ok.message;
}

TEST(Engine, UnprogressableConfigIsAnInternalError)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 1;
    Engine engine(config);

    // A write drain that never ends would starve every read and hang
    // the worker; it must be refused up front, typed, naming the field.
    Fig10Request req = tinyFig10();
    req.config.system.controller.writeLowWatermark = -1;
    const Reply reply = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(req)));
    EXPECT_EQ(reply.status, Status::InternalError);
    EXPECT_NE(reply.message.find("writeLowWatermark"), std::string::npos)
        << reply.message;
    EXPECT_EQ(engine.memo().size(), 0u);

    const Reply ok = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(tinyFig10())));
    EXPECT_EQ(ok.status, Status::Ok) << ok.message;
}

TEST(Engine, DeadlineMapsToDeadlineExceeded)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    Engine engine(config);

    // A deliberately heavy request with a 1 ms deadline: the watchdog
    // fires long before the sweep finishes.
    Fig10Request req = tinyFig10();
    req.config.instructionsPerCore = 200000;
    req.config.system.cores = 4;
    req.config.mixCount = 2;
    req.hcFirsts = {200000, 2000, 64};
    const Reply reply = engine.handle(
        MsgType::Fig10, encodeRequestPayload(1, util::encode(req)));
    EXPECT_EQ(reply.status, Status::DeadlineExceeded) << reply.message;
    EXPECT_EQ(engine.memo().size(), 0u); // Partial results not memoized.

    // The engine survives: a sane request still computes, and the
    // killed request's finished shards were checkpointed for resume.
    const Reply ok = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(tinyFig10())));
    EXPECT_EQ(ok.status, Status::Ok) << ok.message;
}

TEST(Engine, MaxDeadlineCapAppliesToUnboundedRequests)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    config.maxDeadlineMs = 1; // Daemon-side cap.
    Engine engine(config);

    Fig10Request req = tinyFig10();
    req.config.instructionsPerCore = 200000;
    req.config.system.cores = 4;
    req.config.mixCount = 2;
    req.hcFirsts = {200000, 2000, 64};
    // The client asked for NO deadline; the cap binds anyway.
    const Reply reply = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(req)));
    EXPECT_EQ(reply.status, Status::DeadlineExceeded) << reply.message;
}

TEST(Engine, ShutdownMapsToShuttingDown)
{
    TempDir dir;
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 1;
    Engine engine(config);
    engine.beginShutdown();
    const Reply reply = engine.handle(
        MsgType::Fig10, encodeRequestPayload(0, util::encode(tinyFig10())));
    EXPECT_EQ(reply.status, Status::ShuttingDown);
    // Ping still answers: health checks work while draining.
    EXPECT_EQ(engine.handle(MsgType::Ping, "").status, Status::Ok);
}

TEST(Engine, DiskFullDegradesToServingWithoutPersistence)
{
    TempDir dir;
    util::FaultInjectingIo io(util::Io::system());
    EngineConfig config;
    config.storeDir = dir.path();
    config.threads = 2;
    config.io = &io;
    Engine engine(config);

    io.failAfterBytes = 0; // Disk fills up after startup.
    const std::string payload =
        encodeRequestPayload(0, util::encode(tinyFig10()));
    const Reply cold = engine.handle(MsgType::Fig10, payload);
    ASSERT_EQ(cold.status, Status::Ok) << cold.message;
    EXPECT_FALSE(engine.memo().persistent());

    // Still serving — warm hits come from the in-memory memo.
    const Reply warm = engine.handle(MsgType::Fig10, payload);
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(warm.result, cold.result);
}

// ------------------------------------------------------ serveConnection

/** Serve one connection on a background thread until it closes. */
class ServedConnection
{
  public:
    explicit ServedConnection(Server &server,
                              long serverIdleReadTimeoutMs = 0)
    {
        // The client end always waits patiently (10 s); only the
        // server end gets the test's short stall timeout, so a slow CI
        // machine cannot time the client out while the server is
        // composing its typed error reply.
        auto pair = util::MemoryTransport::createPair(
            /*aIdleReadTimeoutMs=*/10000, serverIdleReadTimeoutMs);
        client_ = std::move(pair.first);
        serverEnd_ = std::move(pair.second);
        thread_ = std::thread(
            [&server, t = serverEnd_.get()] { server.serveConnection(*t); });
    }

    ~ServedConnection()
    {
        client_->shutdownBoth();
        thread_.join();
    }

    util::Transport &client() { return *client_; }

  private:
    std::unique_ptr<util::MemoryTransport> client_;
    std::unique_ptr<util::MemoryTransport> serverEnd_;
    std::thread thread_;
};

struct ServiceFixture
{
    TempDir dir;
    EngineConfig engineConfig;
    std::unique_ptr<Engine> engine;
    ServerConfig serverConfig;
    std::unique_ptr<Server> server;

    explicit ServiceFixture(int maxPending = 4)
    {
        engineConfig.storeDir = dir.path();
        engineConfig.threads = 2;
        engine = std::make_unique<Engine>(engineConfig);
        serverConfig.socketPath = dir.path() + "/sock";
        serverConfig.maxPending = maxPending;
        server = std::make_unique<Server>(serverConfig, *engine);
    }
};

TEST(ServeConnection, PingAndFig10OverOneConnection)
{
    ServiceFixture fx;
    ServedConnection conn(*fx.server);

    const CallResult pong = callOnce(conn.client(), MsgType::Ping, "");
    ASSERT_TRUE(pong.ok) << pong.error;

    const std::string payload =
        encodeRequestPayload(0, util::encode(tinyFig10()));
    const CallResult cold =
        callOnce(conn.client(), MsgType::Fig10, payload);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.reply.cached);
    std::vector<core::SweepPoint> points;
    EXPECT_TRUE(util::decode(cold.reply.result, points));
    EXPECT_FALSE(points.empty());

    // Persistent connection: the warm repeat reuses it.
    const CallResult warm =
        callOnce(conn.client(), MsgType::Fig10, payload);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.reply.cached);
    EXPECT_EQ(warm.reply.result, cold.reply.result);
}

TEST(ServeConnection, GarbageHeaderGetsTypedErrorAndClose)
{
    ServiceFixture fx;
    ServedConnection conn(*fx.server);

    EXPECT_TRUE(util::writeAll(conn.client(),
                               std::string(kFrameHeaderBytes, 'Z')));
    std::string header;
    ASSERT_EQ(util::readExact(conn.client(), header, kFrameHeaderBytes),
              util::ReadStatus::Ok);
    std::string why;
    const auto h = decodeFrameHeader(header, why);
    ASSERT_TRUE(h.has_value()) << why;
    ASSERT_EQ(h->type, MsgType::Reply);
    std::string reply_bytes;
    ASSERT_EQ(util::readExact(conn.client(), reply_bytes, h->payloadLen),
              util::ReadStatus::Ok);
    Reply reply;
    ASSERT_TRUE(decodeReply(reply_bytes, reply));
    EXPECT_EQ(reply.status, Status::MalformedRequest);
    EXPECT_NE(reply.message.find("magic"), std::string::npos);

    // The stream was desynchronized, so the server closed it.
    std::string rest;
    EXPECT_NE(util::readExact(conn.client(), rest, 1),
              util::ReadStatus::Ok);
}

TEST(ServeConnection, ReservedTypeSixIsMalformed)
{
    // Type 6 is reserved, not servable: the header decoder names it...
    const MsgType reserved = static_cast<MsgType>(6);
    const std::string payload = encodeRequestPayload(0, "");
    std::string why;
    EXPECT_FALSE(decodeFrameHeader(
                     encodeFrame(reserved, payload).substr(
                         0, kFrameHeaderBytes),
                     why)
                     .has_value());
    EXPECT_EQ(why, "unknown message type 6");

    // ...and the server answers it with a typed error, no crash or
    // hang.
    ServiceFixture fx;
    ServedConnection conn(*fx.server);
    const CallResult result = callOnce(conn.client(), reserved, payload);
    ASSERT_TRUE(result.haveReply) << result.error;
    EXPECT_EQ(result.reply.status, Status::MalformedRequest);
    EXPECT_EQ(result.reply.message, "unknown message type 6");
}

TEST(ServeConnection, CorruptPayloadCrcGetsTypedError)
{
    ServiceFixture fx;
    ServedConnection conn(*fx.server);

    std::string frame = encodeFrame(MsgType::Fig10, "some payload");
    frame.back() = static_cast<char>(frame.back() ^ 0x40);
    EXPECT_TRUE(util::writeAll(conn.client(), frame));

    const CallResult result = [&] {
        CallResult r;
        std::string header;
        if (util::readExact(conn.client(), header, kFrameHeaderBytes) !=
            util::ReadStatus::Ok)
            return r;
        std::string why;
        const auto h = decodeFrameHeader(header, why);
        if (!h)
            return r;
        std::string bytes;
        if (util::readExact(conn.client(), bytes, h->payloadLen) !=
            util::ReadStatus::Ok)
            return r;
        r.haveReply = decodeReply(bytes, r.reply);
        return r;
    }();
    ASSERT_TRUE(result.haveReply);
    EXPECT_EQ(result.reply.status, Status::MalformedRequest);
    EXPECT_NE(result.reply.message.find("CRC"), std::string::npos);
}

TEST(ServeConnection, TruncatedFrameTimesOutWithTypedError)
{
    ServiceFixture fx;
    // Short idle timeout so the half-frame stall is bounded.
    ServedConnection conn(*fx.server, /*serverIdleReadTimeoutMs=*/60);

    // A header promising 50 payload bytes, then silence.
    const std::string frame = encodeFrame(MsgType::Fig10,
                                          std::string(50, 'p'));
    EXPECT_TRUE(util::writeAll(
        conn.client(), frame.substr(0, kFrameHeaderBytes + 10)));

    std::string header;
    ASSERT_EQ(util::readExact(conn.client(), header, kFrameHeaderBytes),
              util::ReadStatus::Ok);
    std::string why;
    const auto h = decodeFrameHeader(header, why);
    ASSERT_TRUE(h.has_value());
    std::string bytes;
    ASSERT_EQ(util::readExact(conn.client(), bytes, h->payloadLen),
              util::ReadStatus::Ok);
    Reply reply;
    ASSERT_TRUE(decodeReply(bytes, reply));
    EXPECT_EQ(reply.status, Status::MalformedRequest);
    EXPECT_NE(reply.message.find("truncated"), std::string::npos);
}

TEST(ServeConnection, AdmissionGateShedsWithRetryLater)
{
    ServiceFixture fx(/*maxPending=*/0); // Shed every non-Ping request.
    ServedConnection conn(*fx.server);

    const std::string payload =
        encodeRequestPayload(0, util::encode(tinyFig10()));
    const CallResult shed =
        callOnce(conn.client(), MsgType::Fig10, payload);
    ASSERT_TRUE(shed.haveReply) << shed.error;
    EXPECT_EQ(shed.reply.status, Status::RetryLater);

    // The connection survives shedding: Ping (admission-free) works,
    // and so does a second shed request.
    const CallResult pong = callOnce(conn.client(), MsgType::Ping, "");
    EXPECT_TRUE(pong.ok) << pong.error;
    const CallResult shed2 =
        callOnce(conn.client(), MsgType::Fig10, payload);
    ASSERT_TRUE(shed2.haveReply);
    EXPECT_EQ(shed2.reply.status, Status::RetryLater);
}

TEST(ServeConnection, DrainingServerAnswersShuttingDown)
{
    ServiceFixture fx;
    fx.engine->beginShutdown();
    ServedConnection conn(*fx.server);
    const CallResult result = callOnce(
        conn.client(), MsgType::Fig10,
        encodeRequestPayload(0, util::encode(tinyFig10())));
    ASSERT_TRUE(result.haveReply) << result.error;
    EXPECT_EQ(result.reply.status, Status::ShuttingDown);
}

// ------------------------------------------------------------- client

TEST(Client, BackoffDoublesWithBoundedJitter)
{
    ClientOptions options;
    options.baseBackoffMs = 100;
    options.maxBackoffMs = 1000;
    options.jitterSeed = 42;

    std::uint64_t state = options.jitterSeed;
    long previous_floor = 0;
    for (int attempt = 1; attempt <= 6; ++attempt) {
        const long floor =
            std::min(options.maxBackoffMs, 100L << (attempt - 1));
        const long ms = backoffMs(options, attempt, state);
        EXPECT_GE(ms, floor);
        EXPECT_LT(ms, floor + options.baseBackoffMs);
        EXPECT_GE(floor, previous_floor);
        previous_floor = floor;
    }

    // Deterministic for a fixed seed.
    std::uint64_t a = 7, b = 7;
    EXPECT_EQ(backoffMs(options, 3, a), backoffMs(options, 3, b));
}

TEST(Client, ConnectFailureRetriesUntilTheBudgetRunsOut)
{
    ClientOptions options;
    options.maxAttempts = 4;
    options.baseBackoffMs = 1;
    options.connector = [] {
        return std::unique_ptr<util::Transport>();
    };
    std::vector<long> sleeps;
    options.sleeper = [&](long ms) { sleeps.push_back(ms); };

    const CallResult result = call(options, MsgType::Ping, "");
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.haveReply);
    EXPECT_EQ(result.attempts, 4);
    EXPECT_EQ(sleeps.size(), 3u); // No sleep after the final failure.
    EXPECT_NE(result.error.find("cannot connect"), std::string::npos);
}

/** A scripted peer: each accepted connection answers one frame with
 *  the next status in the plan. */
class ScriptedServer
{
  public:
    explicit ScriptedServer(std::vector<Status> plan)
        : plan_(std::move(plan))
    {
    }

    ~ScriptedServer()
    {
        for (auto &thread : threads_)
            thread.join();
    }

    std::unique_ptr<util::Transport> connect()
    {
        auto pair = util::MemoryTransport::createPair();
        const std::size_t turn = connections_++;
        const Status status =
            turn < plan_.size() ? plan_[turn] : plan_.back();
        threads_.emplace_back(
            [t = std::shared_ptr<util::MemoryTransport>(
                 std::move(pair.second)),
             status] {
                std::string header;
                if (util::readExact(*t, header, kFrameHeaderBytes) !=
                    util::ReadStatus::Ok)
                    return;
                std::string why;
                const auto h = decodeFrameHeader(header, why);
                if (!h)
                    return;
                std::string payload;
                if (util::readExact(*t, payload, h->payloadLen) !=
                    util::ReadStatus::Ok)
                    return;
                Reply reply;
                reply.status = status;
                reply.message = statusName(status);
                // Fake server's best-effort reply; the client side
                // under test handles a torn send as a retry anyway.
                (void)util::writeAll(
                    *t, encodeFrame(MsgType::Reply, encodeReply(reply)));
            });
        return std::move(pair.first);
    }

    std::size_t connections() const { return connections_; }

  private:
    std::vector<Status> plan_;
    std::atomic<std::size_t> connections_{0};
    std::vector<std::thread> threads_;
};

TEST(Client, RetryLaterBacksOffThenSucceeds)
{
    ScriptedServer peer(
        {Status::RetryLater, Status::RetryLater, Status::Ok});
    ClientOptions options;
    options.maxAttempts = 5;
    options.baseBackoffMs = 1;
    options.connector = [&] { return peer.connect(); };
    std::vector<long> sleeps;
    options.sleeper = [&](long ms) { sleeps.push_back(ms); };

    const CallResult result = call(options, MsgType::Ping, "");
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.attempts, 3);
    EXPECT_EQ(sleeps.size(), 2u);
    EXPECT_EQ(peer.connections(), 3u);
}

TEST(Client, TerminalStatusIsNotRetried)
{
    ScriptedServer peer({Status::InternalError, Status::Ok});
    ClientOptions options;
    options.maxAttempts = 5;
    options.baseBackoffMs = 1;
    options.connector = [&] { return peer.connect(); };
    options.sleeper = [](long) {};

    const CallResult result = call(options, MsgType::Fig10, "payload");
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.haveReply);
    EXPECT_EQ(result.reply.status, Status::InternalError);
    EXPECT_EQ(result.attempts, 1); // Did NOT burn the budget.
    EXPECT_EQ(peer.connections(), 1u);
}

TEST(Client, PersistentlySheddingServerExhaustsTheBudget)
{
    ScriptedServer peer({Status::RetryLater});
    ClientOptions options;
    options.maxAttempts = 3;
    options.baseBackoffMs = 1;
    options.connector = [&] { return peer.connect(); };
    options.sleeper = [](long) {};

    const CallResult result = call(options, MsgType::Ping, "");
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.haveReply);
    EXPECT_EQ(result.reply.status, Status::RetryLater);
    EXPECT_EQ(result.attempts, 3);
}

TEST(Client, TornReplyIsRetriedAsTransient)
{
    // First connection dies mid-reply (fault-injected EOF); second
    // answers cleanly. The client treats the torn reply as transient.
    std::atomic<int> turn{0};
    ScriptedServer peer({Status::Ok});
    std::vector<std::unique_ptr<util::FaultInjectingTransport>> wraps;
    std::vector<std::unique_ptr<util::Transport>> bases;
    ClientOptions options;
    options.maxAttempts = 3;
    options.baseBackoffMs = 1;
    options.sleeper = [](long) {};
    options.connector = [&]() -> std::unique_ptr<util::Transport> {
        auto base = peer.connect();
        if (turn++ == 0) {
            auto flaky = std::make_unique<util::FaultInjectingTransport>(
                *base);
            flaky->readEofAfterBytes = 4; // Reply dies mid-header.
            bases.push_back(std::move(base));
            return flaky;
        }
        return base;
    };

    const CallResult result = call(options, MsgType::Ping, "");
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.attempts, 2);
}

} // namespace
