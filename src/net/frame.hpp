// Framed binary wire protocol of the networked broker transport.
//
// RabbitMQ puts a real TCP wire between the workflow manager and the HPC
// resource (paper §II-C); this header defines our equivalent: a
// length-prefixed binary frame carrying one broker operation or response.
// Layout (all integers little-endian):
//
//   u32  length      bytes after this prefix (capped at kMaxFrameBytes)
//   u8   op          Op code below
//   u64  corr        correlation id (responses echo the request's)
//   u64  arg         op-specific scalar: delivery tag, seq, max_n, count
//   u32  flags       kFlag* bits
//   u16  queue_len   + that many queue-name bytes
//   ...  body        op-specific payload (rest of the frame)
//
// Messages cross the wire in the typed-value (TLV) codec below: a
// structured payload is walked straight into bytes, never rendered to JSON
// text, and the in-process fast path pays nothing at all.
//
// decode_frame is incremental: feed it a receive buffer and an offset; it
// returns nullopt while the buffer holds only a partial frame and throws
// NetError on a malformed or oversized one (a corrupt length prefix must
// kill the connection, not allocate 4 GiB).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/error.hpp"
#include "src/json/json.hpp"
#include "src/mq/message.hpp"

namespace entk::net {

/// Transport-layer failure (framing violation, socket error, lost
/// connection). Subtype of MqError so existing broker-error handling in
/// the components applies unchanged.
class NetError : public MqError {
 public:
  explicit NetError(const std::string& what) : MqError(what) {}
};

enum class Op : std::uint8_t {
  // requests (client -> server)
  kDeclare = 1,
  kHasQueue = 2,
  kPublish = 3,
  kPublishBatch = 4,
  kGet = 5,        ///< arg unused; body = u64 timeout_us (server long-poll)
  kGetBatch = 6,   ///< arg = max_n; body = u64 timeout_us
  kAck = 7,        ///< arg = delivery tag
  kAckBatch = 8,   ///< body = u32 count + count * u64 tags
  kNack = 9,       ///< arg = delivery tag; kFlagRequeue selects redelivery
  kRequeue = 10,   ///< requeue_unacked(queue)
  kDepth = 11,
  kHeartbeat = 12, ///< server echoes with broker health in the body
  kClose = 13,     ///< client going away; server requeues its unacked
  kHello = 14,     ///< tenant binding: body = tenant id. Sent only by a
                   ///< client configured with a tenant; a connection that
                   ///< never says hello is served in the default tenant.
                   ///< The server echoes kHello and binds the connection
                   ///< to the tenant; an invalid or unknown (auto-register
                   ///< off) tenant id gets kError and the connection is
                   ///< dropped — a misaddressed ensemble must not silently
                   ///< run in the default namespace.
  kWorkerHello = 15, ///< worker identity: body = worker id. Marks this
                     ///< connection as an execution worker, subject to the
                     ///< server's worker liveness TTL (a silent worker's
                     ///< connection is dropped and its unacked deliveries
                     ///< requeued).

  // responses (server -> client)
  kOk = 64,           ///< arg = op-specific count/seq; kFlagEmpty on dry get
  kError = 65,        ///< body = error text (client rethrows MqError)
  kDelivery = 66,     ///< arg = delivery tag; body = one encoded message
  kDeliveryBatch = 67,///< body = u32 count + count * (u64 tag, message)
  kDepthReport = 68,  ///< body = u32 count + count * (queue, ready, unacked)
  kErrQuota = 69,     ///< publish rejected by a tenant quota: body = reason
                      ///< text, arg = suggested retry-after in microseconds.
                      ///< Unlike kError this is transient per-tenant
                      ///< backpressure — the client retries with bounded
                      ///< backoff instead of failing the operation.
};

inline constexpr std::uint32_t kFlagDurable = 1u << 0;  ///< kDeclare
inline constexpr std::uint32_t kFlagRequeue = 1u << 1;  ///< kNack
inline constexpr std::uint32_t kFlagEmpty = 1u << 2;    ///< kOk: empty get
inline constexpr std::uint32_t kFlagTrue = 1u << 3;     ///< kOk: bool result

/// Upper bound on one frame (prefix excluded): large enough for any
/// realistic dispatch batch, small enough that a corrupt prefix fails fast.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

struct Frame {
  Op op = Op::kHeartbeat;
  std::uint64_t corr = 0;
  std::uint64_t arg = 0;
  std::uint32_t flags = 0;
  std::string queue;
  std::string body;

  bool operator==(const Frame& other) const = default;
};

// --- scalar codec (exposed for op-payload building and tests) ------------
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// Read little-endian scalars at `offset`, advancing it; throw NetError
/// when the buffer is too short (a framing violation — the frame length
/// promised more payload than the op encoding provides).
std::uint16_t get_u16(std::string_view buf, std::size_t& offset);
std::uint32_t get_u32(std::string_view buf, std::size_t& offset);
std::uint64_t get_u64(std::string_view buf, std::size_t& offset);

// --- frame codec ----------------------------------------------------------
void append_frame(std::string& out, const Frame& frame);
std::string encode_frame(const Frame& frame);

/// Append only the length prefix + fixed header + queue name, declaring
/// `body_bytes` of body to follow. The body travels as a separate buffer —
/// the scatter-gather write path hands (header, body) to one writev
/// instead of copying the body into a contiguous frame.
void append_frame_header(std::string& out, const Frame& frame,
                         std::size_t body_bytes);

/// Decode one frame from `buf` starting at `offset`; on success advances
/// `offset` past it. Returns nullopt for a partial frame. Throws NetError
/// for an oversized or truncated-inside-header frame.
std::optional<Frame> decode_frame(std::string_view buf, std::size_t& offset);

// --- typed-value codec ----------------------------------------------------
// Compact tag-length-value encoding of json::Value, so structured payloads
// cross the wire without ever rendering JSON text (PR 4's
// serialize-at-the-boundary invariant pushed through the network boundary).
// One value is a u8 tag followed by tag-specific bytes (integers
// little-endian, same scalar codec as the frame header):
//
//   tag 0  null      (nothing)
//   tag 1  false     (nothing)
//   tag 2  true      (nothing)
//   tag 3  int64     u64 (two's complement bit pattern)
//   tag 4  double    u64 (IEEE-754 bit pattern)
//   tag 5  string    u32 byte count + UTF-8 bytes
//   tag 6  array     u32 element count + that many values
//   tag 7  object    u32 entry count + entries (u32 key len + key + value)
//
// decode_value throws NetError on an unknown tag, a truncated payload, or
// nesting deeper than kMaxValueDepth (a hostile frame must not overflow
// the stack).
inline constexpr std::size_t kMaxValueDepth = 64;
void append_value(std::string& out, const json::Value& v);
json::Value decode_value(std::string_view buf, std::size_t& offset);

/// Wire form of one mq::Message, used by every message-bearing frame: headers value (TLV), u64 seq, u8
/// payload kind + kind-specific bytes:
///   kind 0  no payload (message carried neither representation)
///   kind 1  raw bytes: u32 len + the already-rendered body verbatim
///   kind 2  structured: one TLV value
/// A message holding a structured payload ships kind 2 — append never
/// calls Message::body(), so NO JSON text is rendered; the receiver's
/// Message comes back with set_payload(), keeping the zero-copy chain
/// intact across the socket. Messages that only ever had bytes (recovered
/// journals, raw publishes) ship those bytes verbatim as kind 1. Null
/// headers and an empty body round-trip as such.
void append_message_binary(std::string& out, const mq::Message& msg);
mq::Message decode_message_binary(std::string_view buf, std::size_t& offset);

}  // namespace entk::net
