/**
 * @file
 * Wire protocol of the campaign daemon (rhd): length-prefixed binary
 * frames over a Unix-domain stream socket.
 *
 * Every message is a fixed 20-byte header followed by `payloadLen`
 * payload bytes:
 *
 *     u32 magic      "RHD\0" — rejects strangers talking to the socket
 *     u32 version    protocol version (kProtocolVersion)
 *     u32 type       MsgType
 *     u32 payloadLen payload byte count; capped at kMaxPayloadBytes
 *     u32 payloadCrc CRC-32 of the payload (util::crc32)
 *
 * Robustness contract: decodeFrameHeader() validates every field
 * before any payload byte is trusted, and a server MUST answer a
 * malformed or oversized frame with a typed error reply (and close)
 * rather than crash, hang, or echo garbage. Payloads themselves are
 * ByteReader-decoded with the same "underruns latch ok()==false"
 * discipline as the checkpoint stores — a truncated request decodes to
 * a recognizable failure, never UB.
 *
 * Request payloads carry the bit-stable run-description serialization
 * from the respective config struct (ExperimentConfig, SweepConfig,
 * HCfirst description) plus a deadline; the daemon memoizes reply
 * payloads in a util::RunStore keyed by fnv1a(request type tag +
 * config bytes), so a repeated query is served from cache byte-
 * identically.
 */

#ifndef ROWHAMMER_SERVICE_PROTOCOL_HH
#define ROWHAMMER_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

namespace rowhammer::service
{

constexpr std::uint32_t kProtocolMagic = 0x00444852; // "RHD\0", LE.
// v2: Fig10 reply points carry a droppedWritebacks RunningStat.
constexpr std::uint32_t kProtocolVersion = 2;

/** Frame payloads above this are rejected as malformed (a corrupt or
 *  hostile length field must not drive a multi-GB allocation). */
constexpr std::uint32_t kMaxPayloadBytes = 16u * 1024 * 1024;

constexpr std::size_t kFrameHeaderBytes = 20;

/** Message types. Requests flow client -> server; Reply flows back. */
enum class MsgType : std::uint32_t
{
    Ping = 1,        ///< Liveness probe; empty payload, empty reply.
    Fig10 = 2,       ///< Mitigation-overhead sweep (ExperimentConfig).
    AttackSweep = 3, ///< Attack-pattern sweep (SweepConfig).
    HcFirst = 4,     ///< Population HCfirst measurement.
    Reply = 5,       ///< Server -> client answer.
    // 6 is reserved (formerly FuzzCampaign, never served): do not
    // reuse it, so a frame from a client that still sends it is
    // rejected by decodeFrameHeader instead of misread.
};

/** Reply status codes. */
enum class Status : std::uint32_t
{
    Ok = 0,
    MalformedRequest = 1, ///< Bad frame or undecodable payload.
    UnsupportedType = 2,  ///< Unknown MsgType or protocol version.
    RetryLater = 3,       ///< Admission queue full — load shedding.
    DeadlineExceeded = 4, ///< The request's compute deadline fired.
    ShuttingDown = 5,     ///< SIGTERM drain in progress.
    InternalError = 6,    ///< Compute failed (FatalError text attached).
};

/** The human-readable name of a status (logs and error messages). */
std::string statusName(Status s);

/** A decoded frame header. */
struct FrameHeader
{
    MsgType type = MsgType::Ping;
    std::uint32_t payloadLen = 0;
    std::uint32_t payloadCrc = 0;
};

/** Encode header + payload into wire bytes. */
[[nodiscard]] std::string encodeFrame(MsgType type,
                                      const std::string &payload);

/**
 * Validate and decode the 20 header bytes. Returns nullopt — with a
 * one-line reason in `why` — on anything unexpected: short input, bad
 * magic, wrong version, unknown type, oversized payloadLen. The
 * payload CRC is checked separately (checkPayload) once the payload
 * has been read.
 */
[[nodiscard]] std::optional<FrameHeader>
decodeFrameHeader(const std::string &bytes, std::string &why);

/** True iff the payload matches the header's CRC. */
[[nodiscard]] bool checkPayload(const FrameHeader &header,
                                const std::string &payload);

/**
 * A decoded Reply payload. Wire layout (ByteWriter):
 *   u32 status, u8 cached, str message, str result
 * `result` is the request-specific result blob (empty on failure);
 * `cached` is 1 when it was served from the daemon's memo store —
 * warm replies are byte-identical to the cold ones that seeded them.
 */
struct Reply
{
    Status status = Status::InternalError;
    bool cached = false;
    std::string message; ///< Human-readable detail (errors, hints).
    std::string result;  ///< Request-specific result bytes.
};

/** Encode a Reply payload (not the frame; see encodeFrame). */
[[nodiscard]] std::string encodeReply(const Reply &reply);

/** Decode a Reply payload; false on truncation/garbage. */
[[nodiscard]] bool decodeReply(const std::string &payload, Reply &out);

/**
 * Per-request compute deadline prefix. Every request payload starts
 * with `u32 deadlineMs` (0 = none) followed by the request-specific
 * config bytes; the deadline is execution-only and therefore excluded
 * from the memo key.
 */
[[nodiscard]] std::string
encodeRequestPayload(std::uint32_t deadline_ms,
                     const std::string &config_bytes);

/** Split a request payload into deadline + config bytes; false on
 *  truncation. */
[[nodiscard]] bool decodeRequestPayload(const std::string &payload,
                                        std::uint32_t &deadline_ms,
                                        std::string &config_bytes);

} // namespace rowhammer::service

#endif // ROWHAMMER_SERVICE_PROTOCOL_HH
