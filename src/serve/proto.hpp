// Trial-lease wire protocol for distributed sweeps (cid_serve <-> workers).
//
// Transport: a TCP byte stream of length-prefixed frames,
//
//   frame := len:u32le payload:bytes[len]
//
// with 0 < len <= kMaxFrameBytes and the payload one JSON object. The
// codec layer here is transport-free (tests exercise it on plain strings);
// src/serve/net.* owns the sockets.
//
// Every message carries a "type". The conversation is strict RPC: the
// coordinator sends exactly one response frame per request, in request
// order, and never pushes unsolicited frames, so a reader is never
// guessing which request a frame answers. A peer may pipeline: write
// several requests in one send and then read their responses in the same
// order (the worker writes a whole batch's complete/requeue frames at
// once; the coordinator buffers the responses to everything one read
// delivered and writes them back in one send).
//
//   hello    {"type":"hello","v":2,"fingerprint":"<16 hex>","worker":S}
//            -> welcome {"type":"welcome","v":2,"worker_id":N,
//                        "trials_total":N,"trials_done":N}
//            or error   {"type":"error","message":S} (version/grid
//            mismatch; the coordinator closes after sending it)
//   lease    {"type":"lease"}
//            -> grant   {"type":"grant","lease_id":N,"cell":N,"trial":N,
//                        "count":K,"ttl_ms":N}
//            or wait    {"type":"wait","backoff_ms":N}   (all work leased)
//            or drained {"type":"drained"}               (nothing left, ever)
//   renew    {"type":"renew","lease_id":N}
//            -> renewed {"type":"renewed","lease_id":N}
//            or lease_lost {"type":"lease_lost","lease_id":N}
//   complete {"type":"complete","lease_id":N,"cell":N,"trial":N,
//             "rounds":H,"converged":N,"movers":N,"potential":H,
//             "social_cost":H}
//            -> ack {"type":"ack"} or lease_lost
//   requeue  {"type":"requeue","lease_id":N,"reason":S} -> ack
//   metrics  {"type":"metrics","metrics_version":1,"counters":{S:N,...}}
//            -> ack
//   bye      {"type":"bye"} -> ack
//
// A grant is a batch: K (1 <= K <= kMaxGrantTrials) consecutive trials
// trial, trial+1, ..., trial+K-1 of one cell, trial i holding its own
// lease lease_id+i. Each lease is renewed, completed, requeued and lost
// on its own; the batch shares only the grant frame.
//
// H fields are IEEE-754 doubles as exactly 16 lowercase hex digits of the
// bit pattern ("3ff0000000000000" = 1.0). Manifest byte-identity between a
// fleet run and a local --threads 1 run rides on outcome doubles crossing
// the wire bit-exactly; hex bits make that unconditional (NaN and -0.0
// included) instead of resting on decimal round-tripping.
//
// Failure policy: a frame that cannot be parsed (bad length, bad JSON,
// wrong field types) throws proto_error. Peers treat that as a poisoned
// connection — there is no way to resynchronize a length-prefixed stream —
// and close it; the coordinator then reclaims the connection's leases.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/sink.hpp"
#include "sweep/scenario.hpp"

namespace cid::serve {

inline constexpr int kServeProtoVersion = 2;
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// The most trials one grant may carry (the coordinator's batch cap and
/// the worker's validation bound).
inline constexpr std::int64_t kMaxGrantTrials = 64;

/// A malformed frame or message: bad length prefix, invalid JSON, missing
/// or mistyped fields. Never recoverable on the same connection.
class proto_error : public std::runtime_error {
 public:
  explicit proto_error(const std::string& message)
      : std::runtime_error(message) {}
};

/// Wraps one JSON payload in a length-prefixed frame. Throws proto_error
/// on an empty or oversized payload (the writer-side guard of the same
/// limits the reader enforces).
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() raw stream bytes in any chunking,
/// next() yields complete payloads in order. A zero or oversized length
/// prefix throws proto_error immediately — before waiting for the payload
/// — so a garbage stream is rejected, not buffered. buffered() exposes
/// how many bytes of an incomplete frame are pending (EOF with
/// buffered() > 0 means the peer died mid-frame).
class FrameReader {
 public:
  void feed(std::string_view bytes);
  std::optional<std::string> next();
  std::size_t buffered() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

// ---- Minimal JSON values (the protocol's parse side) ------------------------

/// Parsed JSON value. Only what the protocol grammar needs: objects,
/// strings, numbers (doubles, with exact int64 retained when the text is
/// integral), booleans, null. Arrays are rejected — no message uses them,
/// and a smaller grammar is a smaller attack surface for garbage frames.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;  // valid when is_integer
  bool is_integer = false;
  std::string string;
  std::map<std::string, JsonValue> object;
};

/// Parses exactly one JSON object (leading/trailing whitespace allowed;
/// trailing garbage is an error). Throws proto_error on anything else.
JsonValue parse_json(std::string_view text);

/// A parsed protocol message: a JSON object with typed field accessors
/// that throw proto_error (naming the field) on absence or wrong type.
class Message {
 public:
  /// Parses and requires a string "type" field.
  static Message parse(std::string_view payload);

  const std::string& type() const noexcept { return type_; }
  bool has(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  /// A field holding hex-encoded IEEE-754 bits (see double_from_bits_hex).
  double get_double_bits(const std::string& key) const;
  /// The name->integer map of a nested object field (the metrics push).
  std::map<std::string, std::int64_t> get_counters(
      const std::string& key) const;

 private:
  const JsonValue& field(const std::string& key) const;
  std::string type_;
  JsonValue root_;
};

// ---- Bit-exact doubles ------------------------------------------------------

/// The 64 bits of `value` as exactly 16 lowercase hex digits.
std::string double_bits_hex(double value);

/// Inverse of double_bits_hex; throws proto_error unless `hex` is exactly
/// 16 hex digits.
double double_from_bits_hex(std::string_view hex);

// ---- Message builders (each returns the serialized JSON payload) ------------

std::string msg_hello(std::uint64_t fingerprint, std::string_view worker);
std::string msg_welcome(std::int64_t worker_id, std::int64_t trials_total,
                        std::int64_t trials_done);
std::string msg_error(std::string_view message);
std::string msg_lease();
std::string msg_grant(std::uint64_t lease_id, std::uint32_t cell,
                      std::uint32_t trial, std::uint32_t count,
                      std::int64_t ttl_ms);
std::string msg_wait(std::int64_t backoff_ms);
std::string msg_drained();
std::string msg_renew(std::uint64_t lease_id);
std::string msg_renewed(std::uint64_t lease_id);
std::string msg_lease_lost(std::uint64_t lease_id);
std::string msg_complete(std::uint64_t lease_id, std::uint32_t cell,
                         std::uint32_t trial,
                         const sweep::TrialOutcome& outcome);
std::string msg_requeue(std::uint64_t lease_id, std::string_view reason);
std::string msg_metrics(const std::map<std::string, std::int64_t>& counters);
std::string msg_bye();
std::string msg_ack();

/// A grant decoded and checked against the worker's grid: `count`
/// consecutive trials of `cell` from `trial` on, trial + i under lease
/// lease_id + i.
struct Grant {
  std::uint64_t lease_id = 0;
  std::uint32_t cell = 0;
  std::uint32_t trial = 0;
  std::uint32_t count = 0;
  std::int64_t ttl_ms = 0;
};

/// Decodes a "grant" for a grid of `cells` cells of `trials` trials each.
/// Throws proto_error when count is 0 or above kMaxGrantTrials, when
/// trial + count runs past `trials`, when the cell is outside the grid,
/// or when ttl_ms is not positive.
Grant decode_grant(const Message& message, std::int64_t cells,
                   std::int64_t trials);

/// Decodes the outcome fields of a "complete" message (hex-bit doubles).
sweep::TrialOutcome decode_outcome(const Message& message);

/// Parses the 16-hex-digit grid fingerprint of a "hello".
std::uint64_t decode_fingerprint(const Message& message);

/// Formats a fingerprint the way msg_hello encodes it (16 hex digits).
std::string fingerprint_hex(std::uint64_t fingerprint);

}  // namespace cid::serve
