// Message type transported by the in-process broker.
//
// Mirrors the slice of AMQP the toolkit relies on: an opaque body plus
// structured headers, a routing key naming the destination queue, and a
// broker-assigned sequence number used for at-least-once delivery
// accounting and journal recovery.
//
// Zero-copy structured messaging: a message can carry its payload in three
// interchangeable representations —
//   * a structured payload: an immutable, shared json::Value. In-process
//     hops (publish, queue retention for ack accounting, delivery) pass it
//     by refcount bump with ZERO serialization;
//   * a byte body: the serialized JSON text. Needed only at the process
//     boundary — durable-queue journaling, wire dumps, raw-body publishes;
//   * typed-value bytes: the wire codec's TLV encoding of the payload
//     (net::append_value format). A message received over a connection
//     carries this form and is re-encoded onto the wire VERBATIM (memcpy)
//     — a broker relaying between peers never decodes the payload at all.
// Each representation is materialized lazily from the others on first
// access and memoized on the message, so the journal and any later
// observability dump never serialize the same message twice, and a
// consumer of a recovered (bytes-only) or wire-delivered (TLV) message
// parses/decodes at most once.
//
// Thread-safety: the *shared* payload/body objects are immutable and safe
// to read from any number of threads. The lazy memoization mutates the
// Message object itself, so one Message instance must not be accessed
// concurrently — the same contract as AMQP client messages. Copies are
// independent (they share the representations but memoize separately).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/json/json.hpp"

namespace entk::mq {

/// Process-wide count of payload→JSON-text renders performed by
/// Message::body() (i.e. the serializations the zero-copy design tries to
/// avoid). Benches and tests snapshot it around a hot section to *prove* a
/// path — e.g. the wire codec — never rendered JSON text.
std::uint64_t body_render_count();

/// Bridge to the typed-value codec, installed by the net layer at load
/// time (src/net/frame.cpp): decodes TLV payload bytes into a json::Value.
/// Lives behind a function pointer so mq stays independent of net; a
/// process that never links the net library also never produces TLV-backed
/// messages.
using TlvDecoder = json::Value (*)(const std::string& bytes);
void set_tlv_decoder(TlvDecoder decoder);
TlvDecoder tlv_decoder();

class Message {
 public:
  std::uint64_t seq = 0;       ///< broker-assigned, unique per broker
  std::string routing_key;     ///< destination queue name
  json::Value headers;         ///< structured metadata (object or null)

  /// Serialized payload bytes; renders (and memoizes) the structured
  /// payload on first access. Empty when the message carries neither
  /// representation.
  const std::string& body() const;

  /// True when the byte body is already materialized — i.e. accessing
  /// body() costs nothing and the message has crossed (or will cross) a
  /// serialization boundary.
  bool has_rendered_body() const { return body_ != nullptr; }

  void set_body(std::string body) {
    set_body(std::make_shared<const std::string>(std::move(body)));
  }
  void set_body(std::shared_ptr<const std::string> body) {
    body_ = std::move(body);
    payload_.reset();
    tlv_.reset();
  }

  /// Share the byte payload without copying (refcount bump only). Null when
  /// the bytes were never set nor rendered.
  const std::shared_ptr<const std::string>& shared_body() const {
    return body_;
  }

  /// Structured payload: the shared parsed value. Parses (and memoizes)
  /// the byte body on first access, so broker-delivered structured
  /// messages cost a refcount bump and recovered bytes-only messages cost
  /// exactly one parse. Throws json::ParseError when the message carries
  /// no payload or a garbage body.
  const std::shared_ptr<const json::Value>& payload() const;

  /// True when the structured payload is present without parsing —
  /// consuming this message performs no deserialization.
  bool has_payload() const { return payload_ != nullptr; }

  void set_payload(json::Value payload) {
    set_payload(std::make_shared<const json::Value>(std::move(payload)));
  }
  void set_payload(std::shared_ptr<const json::Value> payload) {
    payload_ = std::move(payload);
    body_.reset();
    tlv_.reset();
  }

  /// Install the payload as typed-value (TLV) wire bytes, already validated
  /// by the caller (the net frame decoder). The structured payload decodes
  /// lazily on first payload() access through the installed TlvDecoder;
  /// until then the message relays across connections as a verbatim byte
  /// copy.
  void set_tlv_payload(std::shared_ptr<const std::string> bytes) {
    tlv_ = std::move(bytes);
    payload_.reset();
    body_.reset();
  }

  /// TLV payload bytes (null unless the message arrived over a connection
  /// and was not re-materialized since).
  const std::shared_ptr<const std::string>& shared_tlv_payload() const {
    return tlv_;
  }

  /// Build a message carrying `payload` as a structured value: no
  /// serialization happens unless the message crosses a byte boundary
  /// (durable journal, wire dump).
  static Message json_body(std::string routing_key, json::Value payload,
                           json::Value headers = json::Value());

  /// Approximate payload size in bytes, for quota accounting. O(1) when a
  /// byte representation exists (rendered body or TLV — always the case
  /// for wire-delivered messages); otherwise a cheap structural walk of
  /// the json payload that never serializes. Zero for empty messages.
  std::size_t approx_size() const;

 private:
  // Lazily materialized, mutually-memoizing representations (see header
  // comment for the thread-safety contract).
  mutable std::shared_ptr<const std::string> body_;
  mutable std::shared_ptr<const json::Value> payload_;
  std::shared_ptr<const std::string> tlv_;
};

/// A delivered message plus the tag needed to ack/nack it.
struct Delivery {
  std::uint64_t delivery_tag = 0;
  Message message;
};

}  // namespace entk::mq
