#include "protocol.hh"

#include "util/run_store.hh" // crc32
#include "util/serialize.hh"

namespace rowhammer::service
{

namespace
{

std::uint32_t
readU32(const std::string &bytes, std::size_t pos)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes[pos + i]))
            << (8 * i);
    return v;
}

} // namespace

std::string
statusName(Status s)
{
    switch (s) {
      case Status::Ok:
        return "OK";
      case Status::MalformedRequest:
        return "MALFORMED_REQUEST";
      case Status::UnsupportedType:
        return "UNSUPPORTED_TYPE";
      case Status::RetryLater:
        return "RETRY_LATER";
      case Status::DeadlineExceeded:
        return "DEADLINE_EXCEEDED";
      case Status::ShuttingDown:
        return "SHUTTING_DOWN";
      case Status::InternalError:
        return "INTERNAL_ERROR";
    }
    return "UNKNOWN";
}

std::string
encodeFrame(MsgType type, const std::string &payload)
{
    util::ByteWriter w;
    w.u32(kProtocolMagic);
    w.u32(kProtocolVersion);
    w.u32(static_cast<std::uint32_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(util::crc32(payload));
    return w.bytes() + payload;
}

std::optional<FrameHeader>
decodeFrameHeader(const std::string &bytes, std::string &why)
{
    if (bytes.size() < kFrameHeaderBytes) {
        why = "short frame header (" + std::to_string(bytes.size()) +
            " of " + std::to_string(kFrameHeaderBytes) + " bytes)";
        return std::nullopt;
    }
    if (readU32(bytes, 0) != kProtocolMagic) {
        why = "bad magic (not an rhd client?)";
        return std::nullopt;
    }
    const std::uint32_t version = readU32(bytes, 4);
    if (version != kProtocolVersion) {
        why = "protocol version " + std::to_string(version) +
            " != " + std::to_string(kProtocolVersion);
        return std::nullopt;
    }
    const std::uint32_t type = readU32(bytes, 8);
    if (type < static_cast<std::uint32_t>(MsgType::Ping) ||
        type > static_cast<std::uint32_t>(MsgType::Reply)) {
        why = "unknown message type " + std::to_string(type);
        return std::nullopt;
    }
    const std::uint32_t len = readU32(bytes, 12);
    if (len > kMaxPayloadBytes) {
        why = "payload length " + std::to_string(len) +
            " exceeds the " + std::to_string(kMaxPayloadBytes) +
            "-byte cap";
        return std::nullopt;
    }
    FrameHeader h;
    h.type = static_cast<MsgType>(type);
    h.payloadLen = len;
    h.payloadCrc = readU32(bytes, 16);
    return h;
}

bool
checkPayload(const FrameHeader &header, const std::string &payload)
{
    return payload.size() == header.payloadLen &&
        util::crc32(payload) == header.payloadCrc;
}

std::string
encodeReply(const Reply &reply)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(reply.status));
    w.u8(reply.cached ? 1 : 0);
    w.str(reply.message);
    w.str(reply.result);
    return w.bytes();
}

bool
decodeReply(const std::string &payload, Reply &out)
{
    util::ByteReader r(payload);
    const std::uint32_t status = r.u32();
    if (status > static_cast<std::uint32_t>(Status::InternalError))
        return false;
    out.status = static_cast<Status>(status);
    out.cached = r.u8() != 0;
    out.message = r.str();
    out.result = r.str();
    return r.done();
}

std::string
encodeRequestPayload(std::uint32_t deadline_ms,
                     const std::string &config_bytes)
{
    util::ByteWriter w;
    w.u32(deadline_ms);
    return w.bytes() + config_bytes;
}

bool
decodeRequestPayload(const std::string &payload,
                     std::uint32_t &deadline_ms,
                     std::string &config_bytes)
{
    if (payload.size() < 4)
        return false;
    deadline_ms = readU32(payload, 0);
    config_bytes = payload.substr(4);
    return true;
}

} // namespace rowhammer::service
