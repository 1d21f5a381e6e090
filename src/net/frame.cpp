#include "src/net/frame.hpp"

#include <cstring>

#include "src/json/json.hpp"

namespace entk::net {

namespace {

// Fixed header bytes after the u32 length prefix: op(1) + corr(8) + arg(8)
// + flags(4) + queue_len(2).
constexpr std::size_t kHeaderBytes = 1 + 8 + 8 + 4 + 2;

void need(std::string_view buf, std::size_t offset, std::size_t n) {
  if (buf.size() - offset < n) {
    throw NetError("net: truncated payload (need " + std::to_string(n) +
                   " bytes, have " + std::to_string(buf.size() - offset) +
                   ")");
  }
}

}  // namespace

// The put_* helpers stage the little-endian bytes in a stack buffer and
// append once: one length/capacity check per integer instead of one per
// byte, which matters in the TLV codec's numeric hot loops.
void put_u16(std::string& out, std::uint16_t v) {
  char b[2];
  for (int i = 0; i < 2; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, sizeof b);
}

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, sizeof b);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, sizeof b);
}

std::uint16_t get_u16(std::string_view buf, std::size_t& offset) {
  need(buf, offset, 2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(
        static_cast<unsigned char>(buf[offset + i]) << (8 * i));
  }
  offset += 2;
  return v;
}

std::uint32_t get_u32(std::string_view buf, std::size_t& offset) {
  need(buf, offset, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(buf[offset + i]))
         << (8 * i);
  }
  offset += 4;
  return v;
}

std::uint64_t get_u64(std::string_view buf, std::size_t& offset) {
  need(buf, offset, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(buf[offset + i]))
         << (8 * i);
  }
  offset += 8;
  return v;
}

void append_frame_header(std::string& out, const Frame& frame,
                         std::size_t body_bytes) {
  if (frame.queue.size() > 0xffff) {
    throw NetError("net: queue name too long (" +
                   std::to_string(frame.queue.size()) + " bytes)");
  }
  const std::size_t length = kHeaderBytes + frame.queue.size() + body_bytes;
  if (length > kMaxFrameBytes) {
    throw NetError("net: frame too large (" + std::to_string(length) +
                   " bytes)");
  }
  out.reserve(out.size() + 4 + kHeaderBytes + frame.queue.size());
  put_u32(out, static_cast<std::uint32_t>(length));
  out.push_back(static_cast<char>(frame.op));
  put_u64(out, frame.corr);
  put_u64(out, frame.arg);
  put_u32(out, frame.flags);
  put_u16(out, static_cast<std::uint16_t>(frame.queue.size()));
  out.append(frame.queue);
}

void append_frame(std::string& out, const Frame& frame) {
  append_frame_header(out, frame, frame.body.size());
  out.append(frame.body);
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  append_frame(out, frame);
  return out;
}

std::optional<Frame> decode_frame(std::string_view buf, std::size_t& offset) {
  if (buf.size() - offset < 4) return std::nullopt;
  std::size_t cursor = offset;
  const std::uint32_t length = get_u32(buf, cursor);
  if (length > kMaxFrameBytes) {
    throw NetError("net: oversized frame (" + std::to_string(length) +
                   " bytes; limit " + std::to_string(kMaxFrameBytes) + ")");
  }
  if (length < kHeaderBytes) {
    throw NetError("net: short frame header (" + std::to_string(length) +
                   " bytes)");
  }
  if (buf.size() - cursor < length) return std::nullopt;  // partial frame
  const std::size_t frame_end = cursor + length;

  Frame frame;
  frame.op = static_cast<Op>(static_cast<unsigned char>(buf[cursor++]));
  frame.corr = get_u64(buf, cursor);
  frame.arg = get_u64(buf, cursor);
  frame.flags = get_u32(buf, cursor);
  const std::uint16_t queue_len = get_u16(buf, cursor);
  if (frame_end - cursor < queue_len) {
    throw NetError("net: queue name overruns frame");
  }
  frame.queue.assign(buf.substr(cursor, queue_len));
  cursor += queue_len;
  frame.body.assign(buf.substr(cursor, frame_end - cursor));
  offset = frame_end;
  return frame;
}

namespace {

// TLV tags of the typed-value codec (see frame.hpp wire-format table).
enum : unsigned char {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagArray = 6,
  kTagObject = 7,
};

void append_string_tlv(std::string& out, const std::string& s) {
  if (s.size() > kMaxFrameBytes) {
    throw NetError("net: string too large for typed-value codec");
  }
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

json::Value decode_value_at(std::string_view buf, std::size_t& offset,
                            std::size_t depth);

json::Value decode_container(std::string_view buf, std::size_t& offset,
                             std::size_t depth, bool object) {
  if (depth > kMaxValueDepth) {
    throw NetError("net: typed value nested too deeply");
  }
  const std::uint32_t count = get_u32(buf, offset);
  // Each element costs >= 1 byte on the wire, so a count beyond the
  // remaining bytes is a framing lie — reject before reserving memory.
  if (count > buf.size() - offset) {
    throw NetError("net: typed container count overruns frame");
  }
  if (object) {
    json::Object obj;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t key_len = get_u32(buf, offset);
      need(buf, offset, key_len);
      std::string key(buf.substr(offset, key_len));
      offset += key_len;
      obj[key] = decode_value_at(buf, offset, depth + 1);
    }
    return json::Value(std::move(obj));
  }
  json::Array arr;
  arr.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    arr.push_back(decode_value_at(buf, offset, depth + 1));
  }
  return json::Value(std::move(arr));
}

json::Value decode_value_at(std::string_view buf, std::size_t& offset,
                            std::size_t depth) {
  need(buf, offset, 1);
  const auto tag = static_cast<unsigned char>(buf[offset++]);
  switch (tag) {
    case kTagNull:
      return json::Value();
    case kTagFalse:
      return json::Value(false);
    case kTagTrue:
      return json::Value(true);
    case kTagInt: {
      const std::uint64_t bits = get_u64(buf, offset);
      return json::Value(static_cast<std::int64_t>(bits));
    }
    case kTagDouble: {
      const std::uint64_t bits = get_u64(buf, offset);
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&d, &bits, sizeof(d));
      return json::Value(d);
    }
    case kTagString: {
      const std::uint32_t len = get_u32(buf, offset);
      need(buf, offset, len);
      json::Value v(std::string(buf.substr(offset, len)));
      offset += len;
      return v;
    }
    case kTagArray:
      return decode_container(buf, offset, depth, /*object=*/false);
    case kTagObject:
      return decode_container(buf, offset, depth, /*object=*/true);
    default:
      throw NetError("net: unknown typed-value tag " + std::to_string(tag));
  }
}

// Walks one TLV value without building anything: same grammar and limits
// as decode_value_at, allocation-free. The frame decoder uses it to
// validate an incoming payload at the protocol boundary (malformed bytes
// become a NetError on the connection, not a surprise deep inside a
// consumer) and to find the payload's extent so the bytes can be kept
// verbatim for zero-decode relay.
void skip_value_at(std::string_view buf, std::size_t& offset,
                   std::size_t depth) {
  if (depth > kMaxValueDepth) {
    throw NetError("net: typed value nested too deeply");
  }
  need(buf, offset, 1);
  const auto tag = static_cast<unsigned char>(buf[offset++]);
  switch (tag) {
    case kTagNull:
    case kTagFalse:
    case kTagTrue:
      return;
    case kTagInt:
    case kTagDouble:
      need(buf, offset, 8);
      offset += 8;
      return;
    case kTagString: {
      const std::uint32_t len = get_u32(buf, offset);
      need(buf, offset, len);
      offset += len;
      return;
    }
    case kTagArray:
    case kTagObject: {
      const std::uint32_t count = get_u32(buf, offset);
      if (count > buf.size() - offset) {
        throw NetError("net: typed container count overruns frame");
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        if (tag == kTagObject) {
          const std::uint32_t key_len = get_u32(buf, offset);
          need(buf, offset, key_len);
          offset += key_len;
        }
        skip_value_at(buf, offset, depth + 1);
      }
      return;
    }
    default:
      throw NetError("net: unknown typed-value tag " + std::to_string(tag));
  }
}

// TlvDecoder bridge registered with mq at load time: materializes the
// structured payload of a TLV-backed Message on its first payload()
// access.
json::Value decode_tlv_payload(const std::string& bytes) {
  std::size_t offset = 0;
  json::Value v = decode_value_at(bytes, offset, 0);
  if (offset != bytes.size()) {
    throw NetError("net: trailing bytes after typed-value payload");
  }
  return v;
}

[[maybe_unused]] const bool g_tlv_decoder_registered = [] {
  mq::set_tlv_decoder(&decode_tlv_payload);
  return true;
}();

}  // namespace

void append_value(std::string& out, const json::Value& v) {
  switch (v.type()) {
    case json::Type::Null:
      out.push_back(static_cast<char>(kTagNull));
      return;
    case json::Type::Bool:
      out.push_back(static_cast<char>(v.as_bool() ? kTagTrue : kTagFalse));
      return;
    case json::Type::Int: {
      out.push_back(static_cast<char>(kTagInt));
      put_u64(out, static_cast<std::uint64_t>(v.as_int()));
      return;
    }
    case json::Type::Double: {
      out.push_back(static_cast<char>(kTagDouble));
      const double d = v.as_double();
      std::uint64_t bits;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&bits, &d, sizeof(bits));
      put_u64(out, bits);
      return;
    }
    case json::Type::String:
      out.push_back(static_cast<char>(kTagString));
      append_string_tlv(out, v.as_string());
      return;
    case json::Type::Array: {
      out.push_back(static_cast<char>(kTagArray));
      const json::Array& arr = v.as_array();
      put_u32(out, static_cast<std::uint32_t>(arr.size()));
      for (const json::Value& item : arr) append_value(out, item);
      return;
    }
    case json::Type::Object: {
      out.push_back(static_cast<char>(kTagObject));
      const json::Object& obj = v.as_object();
      put_u32(out, static_cast<std::uint32_t>(obj.size()));
      for (const auto& [key, item] : obj) {
        append_string_tlv(out, key);
        append_value(out, item);
      }
      return;
    }
  }
  throw NetError("net: unencodable json value");
}

json::Value decode_value(std::string_view buf, std::size_t& offset) {
  return decode_value_at(buf, offset, 0);
}

namespace {

// Payload-kind discriminants of the message encoding.
enum : unsigned char {
  kPayloadNone = 0,
  kPayloadBytes = 1,
  kPayloadValue = 2,
};

}  // namespace

void append_message_binary(std::string& out, const mq::Message& msg) {
  append_value(out, msg.headers);
  put_u64(out, msg.seq);
  if (msg.shared_tlv_payload() != nullptr) {
    // The payload arrived over the wire and was never touched since: relay
    // the already-validated TLV bytes verbatim. A broker sitting between
    // two peers moves payloads by memcpy alone.
    out.push_back(static_cast<char>(kPayloadValue));
    out.append(*msg.shared_tlv_payload());
  } else if (msg.has_payload()) {
    // The whole point: the structured payload is walked directly into TLV
    // bytes. Message::body() is never called, so no JSON text is rendered
    // (body_render_count() stays flat across this path).
    out.push_back(static_cast<char>(kPayloadValue));
    append_value(out, *msg.payload());
  } else if (msg.has_rendered_body()) {
    out.push_back(static_cast<char>(kPayloadBytes));
    const std::string& body = *msg.shared_body();
    if (body.size() > kMaxFrameBytes) {
      throw NetError("net: message body too large");
    }
    put_u32(out, static_cast<std::uint32_t>(body.size()));
    out.append(body);
  } else {
    out.push_back(static_cast<char>(kPayloadNone));
  }
}

mq::Message decode_message_binary(std::string_view buf, std::size_t& offset) {
  mq::Message msg;
  msg.headers = decode_value(buf, offset);
  msg.seq = get_u64(buf, offset);
  need(buf, offset, 1);
  const auto kind = static_cast<unsigned char>(buf[offset++]);
  switch (kind) {
    case kPayloadNone:
      break;
    case kPayloadBytes: {
      const std::uint32_t len = get_u32(buf, offset);
      need(buf, offset, len);
      msg.set_body(std::string(buf.substr(offset, len)));
      offset += len;
      break;
    }
    case kPayloadValue: {
      // Validate the TLV grammar now (allocation-free walk), but keep the
      // bytes instead of building the value tree: a relaying broker
      // re-encodes them verbatim, and a real consumer's first payload()
      // access decodes exactly once. No JSON parse ever happens for this
      // message.
      const std::size_t start = offset;
      skip_value_at(buf, offset, 0);
      msg.set_tlv_payload(std::make_shared<const std::string>(
          buf.substr(start, offset - start)));
      break;
    }
    default:
      throw NetError("net: unknown message payload kind " +
                     std::to_string(kind));
  }
  return msg;
}

}  // namespace entk::net
