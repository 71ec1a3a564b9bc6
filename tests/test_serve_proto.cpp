// Wire-protocol guarantees for distributed sweeps (src/serve/proto.hpp).
//
// The codec is the trust boundary of cid_serve: every frame a worker or a
// port scanner sends crosses it. The contract under test: well-formed
// frames round-trip under any chunking, malformed input (zero/oversized
// length prefixes, truncated frames, garbage JSON, mistyped fields) is
// rejected with proto_error — never buffered, never a hang — and outcome
// doubles cross the wire bit-exactly (NaN and -0.0 included), because the
// fleet-vs-local manifest byte-identity claim rides on them. The last two
// tests drive a live loopback coordinator with a raw socket: a protocol
// version mismatch and a garbage frame each get a clean close.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "serve/worker.hpp"
#include "sweep/runner.hpp"

namespace cid::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---- Frame codec ------------------------------------------------------------

TEST(Frames, RoundTripUnderAnyChunking) {
  const std::vector<std::string> payloads = {
      "{\"type\":\"lease\"}",
      "{\"type\":\"grant\",\"lease_id\":7}",
      std::string("{\"type\":\"pad\",\"s\":\"") + std::string(5000, 'x') +
          "\"}",
  };
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  // Feed in every chunk size from pathological (1 byte) to all-at-once;
  // the reader must yield the same payloads in order regardless.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}, stream.size()}) {
    SCOPED_TRACE(chunk);
    FrameReader reader;
    std::vector<std::string> out;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.feed(std::string_view(stream).substr(i, chunk));
      while (auto frame = reader.next()) out.push_back(*frame);
    }
    EXPECT_EQ(out, payloads);
    EXPECT_EQ(reader.buffered(), 0u);  // nothing half-read left behind
  }
}

TEST(Frames, WriterEnforcesTheSameLimitsTheReaderDoes) {
  EXPECT_THROW(encode_frame(""), proto_error);
  EXPECT_THROW(encode_frame(std::string(kMaxFrameBytes + 1, 'x')),
               proto_error);
  // The boundary itself is legal.
  EXPECT_NO_THROW(encode_frame(std::string(kMaxFrameBytes, 'x')));
}

TEST(Frames, ZeroAndOversizedLengthPrefixesRejectedImmediately) {
  const auto prefix = [](std::uint32_t length) {
    std::string out(4, '\0');
    for (int i = 0; i < 4; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<char>((length >> (8 * i)) & 0xFF);
    }
    return out;
  };
  {
    FrameReader reader;
    reader.feed(prefix(0));
    EXPECT_THROW(reader.next(), proto_error);
  }
  {
    // The oversized prefix is rejected from the four length bytes alone —
    // before any payload arrives — so garbage cannot demand a 4 GiB
    // buffer before being found out.
    FrameReader reader;
    reader.feed(prefix(kMaxFrameBytes + 1));
    EXPECT_THROW(reader.next(), proto_error);
  }
  {
    // "GET " as a length prefix (an HTTP client on the lease port) is
    // 0x20544547 bytes — far past the cap.
    FrameReader reader;
    reader.feed("GET / HTTP/1.1\r\n");
    EXPECT_THROW(reader.next(), proto_error);
  }
}

TEST(Frames, TruncatedFrameStaysPendingNotDelivered) {
  const std::string frame = encode_frame("{\"type\":\"bye\"}");
  FrameReader reader;
  reader.feed(std::string_view(frame).substr(0, frame.size() - 3));
  EXPECT_FALSE(reader.next().has_value());
  // EOF now would leave buffered() > 0 — the "peer died mid-frame"
  // signal connection teardown keys off.
  EXPECT_GT(reader.buffered(), 0u);
  reader.feed(std::string_view(frame).substr(frame.size() - 3));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"type\":\"bye\"}");
  EXPECT_EQ(reader.buffered(), 0u);
}

// ---- JSON grammar -----------------------------------------------------------

TEST(Json, GarbageIsRejectedNotGuessedAt) {
  const std::vector<std::string> bad = {
      "",
      "not json",
      "42",                        // top level must be an object
      "\"string\"",                //
      "[1,2,3]",                   // arrays are outside the grammar
      "{\"a\":[1]}",               //
      "{",                         // truncated
      "{\"a\":}",                  //
      "{\"a\":1,}",                // trailing comma
      "{\"a\":1} trailing",        // trailing garbage
      "{\"a\":1,\"a\":2}",         // duplicate keys
      "{\"a\":\"\x01\"}",          // raw control char in string
      "{\"a\":\"\\u20ac\"}",       // non-ASCII escape (outside grammar)
      "{\"a\":nulll}",             //
      std::string(9, '{'),         // nesting past the depth cap
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(parse_json(text), proto_error);
  }
}

TEST(Json, IntegersStayExactDoublesStayDoubles) {
  const JsonValue v = parse_json(
      "{\"big\":9007199254740993,\"neg\":-5,\"frac\":1.5,\"exp\":1e3,"
      "\"yes\":true,\"none\":null,\"s\":\"a\\\\b\\\"c\\u0041\"}");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  // 2^53+1 is not representable as a double; the integer lane keeps it.
  EXPECT_TRUE(v.object.at("big").is_integer);
  EXPECT_EQ(v.object.at("big").integer, 9007199254740993LL);
  EXPECT_EQ(v.object.at("neg").integer, -5);
  EXPECT_FALSE(v.object.at("frac").is_integer);
  EXPECT_EQ(v.object.at("frac").number, 1.5);
  EXPECT_FALSE(v.object.at("exp").is_integer);
  EXPECT_EQ(v.object.at("exp").number, 1000.0);
  EXPECT_TRUE(v.object.at("yes").boolean);
  EXPECT_EQ(v.object.at("none").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.object.at("s").string, "a\\b\"cA");
}

// ---- Bit-exact doubles ------------------------------------------------------

TEST(HexBits, EveryBitPatternRoundTrips) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      3.141592653589793,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double value : values) {
    const std::string hex = double_bits_hex(value);
    SCOPED_TRACE(hex);
    EXPECT_EQ(hex.size(), 16u);
    const double back = double_from_bits_hex(hex);
    // Bitwise identity, not ==: NaN != NaN and -0.0 == 0.0 would both
    // let a lossy codec slip through a value comparison.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &value, sizeof(a));
    std::memcpy(&b, &back, sizeof(b));
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(double_bits_hex(1.0), "3ff0000000000000");
  EXPECT_EQ(double_from_bits_hex("3ff0000000000000"), 1.0);
}

TEST(HexBits, MalformedHexRejected) {
  EXPECT_THROW(double_from_bits_hex(""), proto_error);
  EXPECT_THROW(double_from_bits_hex("3ff000000000000"), proto_error);    // 15
  EXPECT_THROW(double_from_bits_hex("3ff00000000000000"), proto_error);  // 17
  EXPECT_THROW(double_from_bits_hex("3ff000000000000g"), proto_error);
}

// ---- Messages ---------------------------------------------------------------

TEST(Messages, CompleteRoundTripsOutcomesBitExactly) {
  sweep::TrialOutcome outcome;
  outcome.rounds = 123456.0;
  outcome.converged = true;
  outcome.movers = 987654321;
  outcome.potential = -0.0;  // the classic decimal-round-trip victims
  outcome.social_cost = std::numeric_limits<double>::quiet_NaN();

  const Message message =
      Message::parse(msg_complete(42, 3, 7, outcome));
  EXPECT_EQ(message.type(), "complete");
  EXPECT_EQ(message.get_int("lease_id"), 42);
  EXPECT_EQ(message.get_int("cell"), 3);
  EXPECT_EQ(message.get_int("trial"), 7);
  const sweep::TrialOutcome back = decode_outcome(message);
  EXPECT_EQ(back.rounds, outcome.rounds);
  EXPECT_EQ(back.converged, outcome.converged);
  EXPECT_EQ(back.movers, outcome.movers);
  EXPECT_EQ(double_bits_hex(back.potential),
            double_bits_hex(outcome.potential));
  EXPECT_EQ(double_bits_hex(back.social_cost),
            double_bits_hex(outcome.social_cost));
}

TEST(Messages, HelloAndMetricsRoundTrip) {
  const std::uint64_t fingerprint = 0xDEADBEEFCAFEF00DULL;
  const Message hello = Message::parse(msg_hello(fingerprint, "w-1"));
  EXPECT_EQ(hello.type(), "hello");
  EXPECT_EQ(hello.get_int("v"), kServeProtoVersion);
  EXPECT_EQ(hello.get_string("worker"), "w-1");
  EXPECT_EQ(decode_fingerprint(hello), fingerprint);

  const std::map<std::string, std::int64_t> counters = {
      {"sweep.trials_run", 12}, {"sweep.queue_wait_ns", 3456789}};
  const Message metrics = Message::parse(msg_metrics(counters));
  EXPECT_EQ(metrics.type(), "metrics");
  EXPECT_EQ(metrics.get_int("metrics_version"), obs::kMetricsVersion);
  EXPECT_EQ(metrics.get_counters("counters"), counters);
}

TEST(Messages, AccessorsNameTheOffendingField) {
  EXPECT_THROW(Message::parse("{\"v\":1}"), proto_error);  // no type
  EXPECT_THROW(Message::parse("{\"type\":7}"), proto_error);

  const Message m = Message::parse(
      "{\"type\":\"grant\",\"lease_id\":\"seven\",\"ttl_ms\":1.5}");
  EXPECT_TRUE(m.has("lease_id"));
  EXPECT_FALSE(m.has("cell"));
  EXPECT_THROW(m.get_int("cell"), proto_error);         // absent
  EXPECT_THROW(m.get_int("lease_id"), proto_error);     // string, not int
  EXPECT_THROW(m.get_int("ttl_ms"), proto_error);       // fractional
  EXPECT_THROW(m.get_string("ttl_ms"), proto_error);    // number, not string
  EXPECT_THROW(m.get_double_bits("lease_id"), proto_error);  // bad hex
  EXPECT_THROW(m.get_counters("lease_id"), proto_error);     // not an object
  try {
    m.get_int("lease_id");
    FAIL() << "expected proto_error";
  } catch (const proto_error& error) {
    EXPECT_NE(std::string(error.what()).find("lease_id"), std::string::npos);
  }
}

TEST(Messages, GrantCarriesABatchAndIsCheckedAgainstTheGrid) {
  // A grid of 4 cells x 10 trials.
  const Grant grant =
      decode_grant(Message::parse(msg_grant(41, 3, 6, 4, 30000)), 4, 10);
  EXPECT_EQ(grant.lease_id, 41u);
  EXPECT_EQ(grant.cell, 3u);
  EXPECT_EQ(grant.trial, 6u);
  EXPECT_EQ(grant.count, 4u);
  EXPECT_EQ(grant.ttl_ms, 30000);

  const auto grant_json = [](const std::string& cell,
                             const std::string& trial,
                             const std::string& count) {
    return Message::parse("{\"type\":\"grant\",\"lease_id\":1,\"cell\":" +
                          cell + ",\"trial\":" + trial + ",\"count\":" +
                          count + ",\"ttl_ms\":1000}");
  };
  EXPECT_NO_THROW(decode_grant(grant_json("0", "0", "10"), 4, 10));
  EXPECT_THROW(decode_grant(grant_json("0", "0", "0"), 4, 10), proto_error);
  EXPECT_THROW(decode_grant(grant_json("0", "0", "65"), 4, 100),
               proto_error);
  EXPECT_THROW(decode_grant(grant_json("0", "7", "4"), 4, 10), proto_error);
  EXPECT_THROW(decode_grant(grant_json("0", "-1", "1"), 4, 10), proto_error);
  EXPECT_THROW(decode_grant(grant_json("4", "0", "1"), 4, 10), proto_error);
  EXPECT_THROW(decode_grant(grant_json("-1", "0", "1"), 4, 10), proto_error);
  EXPECT_THROW(
      decode_grant(grant_json("0", "9223372036854775807", "64"), 4, 10),
      proto_error);
  EXPECT_THROW(decode_grant(Message::parse(msg_grant(1, 0, 0, 1, 0)), 4, 10),
               proto_error);  // a zero TTL
}

// ---- Mutation probe of the frame and message parsers ------------------------

// A byte stream as one peer writes it, with the offset of each frame's
// length prefix.
struct WireStream {
  std::string bytes;
  std::vector<std::size_t> prefixes;

  void add(const std::string& payload) {
    prefixes.push_back(bytes.size());
    bytes += encode_frame(payload);
  }
};

// Every v2 message, one per stream, plus the two multi-frame writes a
// batch produces: the worker's pipelined completions and the
// coordinator's buffered acks.
std::vector<WireStream> v2_streams() {
  sweep::TrialOutcome outcome;
  outcome.rounds = 812.0;
  outcome.converged = true;
  outcome.movers = 12345;
  outcome.potential = 4321.5;
  outcome.social_cost = -0.0;
  const std::vector<std::string> messages = {
      msg_hello(0x0123456789abcdefULL, "w-1"),
      msg_welcome(3, 64, 5),
      msg_error("protocol version mismatch: coordinator 2, worker 1"),
      msg_lease(),
      msg_grant(17, 3, 10, static_cast<std::uint32_t>(kMaxGrantTrials),
                30000),
      msg_wait(100),
      msg_drained(),
      msg_renew(17),
      msg_renewed(17),
      msg_lease_lost(17),
      msg_complete(17, 3, 10, outcome),
      msg_requeue(18, "worker trial budget"),
      msg_metrics({{"sweep.trials_run", 12}, {"sweep.queue_wait_ns", 345}}),
      msg_bye(),
      msg_ack(),
  };
  std::vector<WireStream> streams;
  for (const std::string& message : messages) {
    streams.emplace_back();
    streams.back().add(message);
  }
  WireStream completions;
  WireStream acks;
  for (std::uint32_t i = 0; i < 5; ++i) {
    completions.add(msg_complete(17 + i, 3, 10 + i, outcome));
    acks.add(i == 2 ? msg_lease_lost(17 + i) : msg_ack());
  }
  completions.add(msg_requeue(22, "injected trial fault"));
  acks.add(msg_ack());
  streams.push_back(completions);
  streams.push_back(acks);
  return streams;
}

// Reads every field a peer reads from a message of this type.
void decode_like_a_peer(const Message& m) {
  const std::string& type = m.type();
  if (type == "hello") {
    m.get_int("v");
    decode_fingerprint(m);
    m.get_string("worker");
  } else if (type == "welcome") {
    m.get_int("worker_id");
    m.get_int("trials_total");
    m.get_int("trials_done");
  } else if (type == "error") {
    m.get_string("message");
  } else if (type == "grant") {
    decode_grant(m, 4, 80);
  } else if (type == "wait") {
    m.get_int("backoff_ms");
  } else if (type == "renew" || type == "renewed" || type == "lease_lost") {
    m.get_int("lease_id");
  } else if (type == "complete") {
    m.get_int("lease_id");
    m.get_int("cell");
    m.get_int("trial");
    decode_outcome(m);
  } else if (type == "requeue") {
    m.get_int("lease_id");
    m.get_string("reason");
  } else if (type == "metrics") {
    m.get_int("metrics_version");
    m.get_counters("counters");
  }
}

// About 2 000 mutants of every v2 stream — byte flips, truncations and
// length-prefix edits, fed in random chunks — must each decode or throw
// proto_error. Any other exception fails the test; a crash or hang kills
// it. The seed is fixed, so a failure reproduces.
TEST(Mutation, EveryMutantOfEveryV2StreamDecodesOrThrowsProtoError) {
  const std::vector<WireStream> streams = v2_streams();
  std::mt19937_64 rng(0x5eed2026);
  const auto below = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  constexpr int kMutants = 2000;
  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const WireStream& stream = streams[static_cast<std::size_t>(i) %
                                       streams.size()];
    std::string bytes = stream.bytes;
    switch (below(3)) {
      case 0:  // flip 1-4 bytes
        for (std::size_t flips = 1 + below(4); flips > 0; --flips) {
          bytes[below(bytes.size())] ^=
              static_cast<char>(1 + below(255));
        }
        break;
      case 1:  // truncate
        bytes.resize(below(bytes.size()));
        break;
      default: {  // rewrite one frame's length prefix
        const std::size_t at = stream.prefixes[below(stream.prefixes.size())];
        std::uint32_t length = 0;
        for (std::size_t b = 0; b < 4; ++b) {
          length |= static_cast<std::uint32_t>(
                        static_cast<unsigned char>(bytes[at + b]))
                    << (8 * b);
        }
        const std::uint32_t edits[] = {0u,
                                       length - 1,
                                       length + 1,
                                       length / 2,
                                       kMaxFrameBytes,
                                       kMaxFrameBytes + 1,
                                       0xFFFFFFFFu,
                                       static_cast<std::uint32_t>(rng())};
        const std::uint32_t edited = edits[below(std::size(edits))];
        for (std::size_t b = 0; b < 4; ++b) {
          bytes[at + b] = static_cast<char>((edited >> (8 * b)) & 0xFF);
        }
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i));
    try {
      FrameReader reader;
      for (std::size_t pos = 0; pos < bytes.size();) {
        const std::size_t chunk = 1 + below(bytes.size() - pos);
        reader.feed(std::string_view(bytes).substr(pos, chunk));
        pos += chunk;
        while (auto frame = reader.next()) {
          decode_like_a_peer(Message::parse(*frame));
        }
      }
      ++decoded;
    } catch (const proto_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, kMutants);
  // Both outcomes occur: the probe is neither all-garbage nor no-op.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---- Live handshake rejection (loopback) ------------------------------------

// A one-cell, one-trial grid: enough for a coordinator to serve while a
// raw socket pokes at its handshake.
sweep::SweepGrid tiny_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {50};
  grid.trials = 1;
  grid.master_seed = 9;
  grid.dynamics.max_rounds = 500;
  return grid;
}

// One blocking request/response on a raw client socket.
std::string raw_rpc(const Socket& socket, const std::string& payload) {
  send_frame(socket, encode_frame(payload));
  FrameReader reader;
  char buffer[4096];
  for (;;) {
    if (auto frame = reader.next()) return *frame;
    const std::size_t got = read_some(socket, buffer, sizeof(buffer));
    if (got == 0) {
      throw net_error("coordinator closed before responding");
    }
    reader.feed(std::string_view(buffer, got));
  }
}

// Reads until EOF; throws net_error (timeout) if the peer never closes.
void expect_eof(const Socket& socket) {
  char buffer[4096];
  while (read_some(socket, buffer, sizeof(buffer)) != 0) {
  }
}

TEST(Handshake, MismatchesAndGarbageGetCleanClosesNotHangs) {
  const sweep::SweepGrid grid = tiny_grid();
  const std::string manifest =
      temp_path("proto_handshake.manifest");
  std::remove(manifest.c_str());

  CoordinatorOptions options;
  options.manifest_path = manifest;
  options.tick_seconds = 0.01;
  options.max_seconds = 60.0;  // safety net, never the expected exit
  std::promise<std::uint16_t> port_promise;
  options.on_listening = [&](std::uint16_t lease_port, std::uint16_t) {
    port_promise.set_value(lease_port);
  };
  std::thread coordinator([&] { serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  {
    // Wrong protocol version: an explicit error frame, then close.
    Socket s = tcp_connect("127.0.0.1", port);
    set_recv_timeout(s, 10.0);
    const Message reply = Message::parse(raw_rpc(
        s, "{\"type\":\"hello\",\"v\":999,"
           "\"fingerprint\":\"0000000000000000\",\"worker\":\"bad\"}"));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NE(reply.get_string("message").find("version"),
              std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Right version, wrong grid: the fingerprint guard.
    Socket s = tcp_connect("127.0.0.1", port);
    set_recv_timeout(s, 10.0);
    const Message reply = Message::parse(
        raw_rpc(s, msg_hello(persist::grid_fingerprint(grid) ^ 1, "bad")));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NE(reply.get_string("message").find("fingerprint"),
              std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // Requests before hello are a protocol violation, not a lease.
    Socket s = tcp_connect("127.0.0.1", port);
    set_recv_timeout(s, 10.0);
    const Message reply = Message::parse(raw_rpc(s, msg_lease()));
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NO_THROW(expect_eof(s));
  }
  {
    // A garbage length prefix poisons the connection: dropped, no reply.
    Socket s = tcp_connect("127.0.0.1", port);
    set_recv_timeout(s, 10.0);
    send_frame(s, "GARBAGE-NOT-A-FRAME");
    EXPECT_NO_THROW(expect_eof(s));
  }

  // The coordinator survived all four abuses: a real worker still drains
  // the grid, which is also what lets serve_grid() return.
  WorkerOptions worker;
  worker.port = port;
  worker.name = "after-abuse";
  const WorkerReport report = run_worker(grid, worker);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.trials_completed, 1u);
  coordinator.join();
  std::remove(manifest.c_str());
}

// One frame from a raw socket (the peer sends nothing more until it is
// answered, so a fresh reader cannot swallow a second frame).
Message read_message(const Socket& socket) {
  FrameReader reader;
  char buffer[4096];
  for (;;) {
    if (auto frame = reader.next()) return Message::parse(*frame);
    const std::size_t got = read_some(socket, buffer, sizeof(buffer));
    if (got == 0) throw net_error("peer closed before sending a frame");
    reader.feed(std::string_view(buffer, got));
  }
}

// A coordinator that grants trials the worker's grid does not have: the
// worker treats each such grant as a poisoned connection — it drops the
// connection and reconnects, leaving the leases to the coordinator's
// reclaim — instead of running past its grid or looping on a huge count.
TEST(Handshake, WorkerDropsTheConnectionOnAGrantOutsideItsGrid) {
  const sweep::SweepGrid grid = tiny_grid();  // 1 cell x 1 trial
  TcpListener listener = TcpListener::listen_on("127.0.0.1", 0);
  WorkerReport report;
  std::thread worker_thread([&] {
    WorkerOptions worker;
    worker.port = listener.port();
    worker.recv_timeout_seconds = 10.0;
    report = run_worker(grid, worker);
  });

  const std::vector<std::string> bad_grants = {
      msg_grant(1, 0, 0, 2, 1000),    // trial + count past grid.trials
      msg_grant(2, 1, 0, 1, 1000),    // cell outside the grid
      msg_grant(3, 0, 0, 100, 1000),  // count above kMaxGrantTrials
      msg_grant(4, 0, 0, 0, 1000),    // empty batch
  };
  for (const std::string& grant : bad_grants) {
    SCOPED_TRACE(grant);
    const Socket conn = listener.accept();
    set_recv_timeout(conn, 10.0);
    EXPECT_EQ(read_message(conn).type(), "hello");
    send_frame(conn, encode_frame(msg_welcome(1, 1, 0)));
    EXPECT_EQ(read_message(conn).type(), "lease");
    send_frame(conn, encode_frame(grant));
    EXPECT_NO_THROW(expect_eof(conn));  // no completion, just a close
  }
  // The last connection drains cleanly.
  const Socket conn = listener.accept();
  set_recv_timeout(conn, 10.0);
  EXPECT_EQ(read_message(conn).type(), "hello");
  send_frame(conn, encode_frame(msg_welcome(1, 1, 0)));
  EXPECT_EQ(read_message(conn).type(), "lease");
  send_frame(conn, encode_frame(msg_drained()));
  EXPECT_EQ(read_message(conn).type(), "metrics");
  send_frame(conn, encode_frame(msg_ack()));
  EXPECT_EQ(read_message(conn).type(), "bye");
  send_frame(conn, encode_frame(msg_ack()));
  worker_thread.join();

  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.reconnects, bad_grants.size());
  EXPECT_EQ(report.trials_completed, 0u);
}

}  // namespace
}  // namespace cid::serve
