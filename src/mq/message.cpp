#include "src/mq/message.hpp"

#include <atomic>

namespace entk::mq {

namespace {
std::atomic<std::uint64_t> g_body_renders{0};
std::atomic<TlvDecoder> g_tlv_decoder{nullptr};
}  // namespace

void set_tlv_decoder(TlvDecoder decoder) {
  g_tlv_decoder.store(decoder, std::memory_order_release);
}

TlvDecoder tlv_decoder() {
  return g_tlv_decoder.load(std::memory_order_acquire);
}

std::uint64_t body_render_count() {
  return g_body_renders.load(std::memory_order_relaxed);
}

const std::string& Message::body() const {
  if (body_ == nullptr) {
    if (payload_ == nullptr && tlv_ != nullptr) {
      payload();  // materialize the structured payload from the TLV bytes
    }
    if (payload_ != nullptr) {
      g_body_renders.fetch_add(1, std::memory_order_relaxed);
      body_ = std::make_shared<const std::string>(payload_->dump());
    } else {
      static const std::string kEmpty;
      return kEmpty;
    }
  }
  return *body_;
}

const std::shared_ptr<const json::Value>& Message::payload() const {
  if (payload_ == nullptr) {
    if (tlv_ != nullptr) {
      const TlvDecoder decode = tlv_decoder();
      if (decode == nullptr) {
        throw json::ParseError(
            "mq: message carries typed-value payload bytes but no TLV "
            "decoder is installed (net library not linked?)",
            0);
      }
      payload_ = std::make_shared<const json::Value>(decode(*tlv_));
    } else {
      // Parses the rendered bytes; an empty body (neither representation
      // ever set) throws ParseError.
      payload_ = std::make_shared<const json::Value>(json::parse(body()));
    }
  }
  return payload_;
}

namespace {

// Structural size estimate of a json value: string/number/punctuation
// budgets roughly matching the dumped form, without rendering anything.
std::size_t approx_json_size(const json::Value& v) {
  if (v.is_string()) return v.as_string().size() + 2;
  if (v.is_array()) {
    std::size_t n = 2;
    for (const json::Value& e : v.as_array()) n += approx_json_size(e) + 1;
    return n;
  }
  if (v.is_object()) {
    std::size_t n = 2;
    for (const auto& [key, val] : v.as_object()) {
      n += key.size() + 4 + approx_json_size(val);
    }
    return n;
  }
  return 8;  // null / bool / number
}

}  // namespace

std::size_t Message::approx_size() const {
  if (body_ != nullptr) return body_->size();
  if (tlv_ != nullptr) return tlv_->size();
  if (payload_ != nullptr) return approx_json_size(*payload_);
  return 0;
}

Message Message::json_body(std::string routing_key, json::Value payload,
                           json::Value headers) {
  Message m;
  m.routing_key = std::move(routing_key);
  m.headers = std::move(headers);
  m.set_payload(std::move(payload));
  return m;
}

}  // namespace entk::mq
