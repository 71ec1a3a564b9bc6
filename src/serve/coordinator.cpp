#include "serve/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "persist/manifest.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "util/fault.hpp"

namespace cid::serve {
namespace {

/// Work one grant aims to hand out, in seconds of measured trial hold.
constexpr double kBatchTargetSeconds = 0.010;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << port << "\n";
  if (!out) {
    throw net_error("cannot write port file: " + path);
  }
}

struct Lease {
  std::size_t trial_index = 0;
  std::uint64_t conn_id = 0;
  std::int64_t deadline_ns = 0;
  std::int64_t granted_ns = 0;
  /// Trials in the grant this lease came with; its hold divided by this
  /// is the connection's per-trial hold estimate.
  std::uint32_t batch = 1;
  /// serve.lease_expire fired at grant time: this lease is already lost —
  /// its completion is rejected and the trial reclaimed on the next tick,
  /// whatever the wall clock does.
  bool poisoned = false;
};

struct Connection {
  Socket socket;
  FrameReader reader;
  std::int64_t worker_id = -1;  // -1 until a valid hello
  std::string worker_name;
  bool closing = false;  // error/bye sent; drop after flush
  /// Responses to the frames of the current read, written in one send.
  std::string outbox;
  /// Latest measured grant-to-completion time per trial on this
  /// connection; 0 until a completion lands (the next grant is 1 trial).
  std::int64_t trial_hold_ns = 0;
};

struct HttpConnection {
  Socket socket;
  std::string request;
};

enum class TrialState : std::uint8_t { kPending, kLeased, kDone, kFailed };

class Coordinator {
 public:
  Coordinator(const sweep::SweepGrid& grid, const CoordinatorOptions& options)
      : grid_(grid), options_(options) {
    num_cells_ = grid.ns.size() * grid.protocols.size();
    trials_per_cell_ = static_cast<std::size_t>(grid.trials);
    const std::size_t total = num_cells_ * trials_per_cell_;
    state_.assign(total, TrialState::kPending);
    requeue_counts_.assign(total, 0);
    report_.trials_total = total;
    fingerprint_ = persist::grid_fingerprint(grid);

    lease_latency_hist_ = registry_.histogram(
        "serve.lease_latency_ms",
        {1.0, 5.0, 25.0, 100.0, 500.0, 2000.0, 10000.0, 60000.0});

    if (options.manifest_path.empty()) {
      throw std::runtime_error("cid_serve requires a manifest path");
    }
    // Resume-or-create, exactly like the local runner: an existing
    // manifest's trials are merged in and never re-granted.
    if (std::filesystem::exists(options.manifest_path)) {
      const persist::ManifestContents contents =
          persist::load_manifest(options.manifest_path, grid);
      for (const auto& [key, outcome] : contents.completed) {
        const std::size_t index =
            static_cast<std::size_t>(key.first) * trials_per_cell_ +
            static_cast<std::size_t>(key.second);
        if (index >= total) continue;
        completed_[key] = outcome;
        state_[index] = TrialState::kDone;
      }
      report_.trials_resumed = completed_.size();
      manifest_.emplace(persist::ManifestWriter::open_for_append(
          options.manifest_path, grid));
    } else {
      manifest_.emplace(
          persist::ManifestWriter::create(options.manifest_path, grid));
    }
    report_.trials_completed = completed_.size();

    for (std::size_t i = 0; i < total; ++i) {
      if (state_[i] == TrialState::kPending) queue_.push_back(i);
    }
  }

  CoordinatorReport run() {
    listener_.emplace(
        TcpListener::listen_on(options_.host, options_.port));
    write_port_file(options_.port_file, listener_->port());
    std::uint16_t metrics_port = 0;
    if (options_.metrics_http) {
      metrics_listener_.emplace(
          TcpListener::listen_on(options_.host, options_.metrics_port));
      metrics_port = metrics_listener_->port();
      write_port_file(options_.metrics_port_file, metrics_port);
    }
    if (options_.on_listening) {
      options_.on_listening(listener_->port(), metrics_port);
    }
    if (options_.verbose) {
      std::fprintf(stderr, "cid_serve: listening on %s:%u (%zu of %zu "
                   "trials pending)\n",
                   options_.host.c_str(), listener_->port(), queue_.size(),
                   report_.trials_total);
    }

    const std::int64_t start_ns = steady_ns();
    const std::int64_t deadline_ns =
        options_.max_seconds > 0.0
            ? start_ns + static_cast<std::int64_t>(options_.max_seconds * 1e9)
            : 0;

    while (!(work_finished() && connections_.empty())) {
      if (deadline_ns != 0 && steady_ns() >= deadline_ns) {
        report_.timed_out = true;
        break;
      }
      poll_once();
      reclaim_expired();
    }

    finish();
    // A worker that dialed while the grid drained (or while finish() wrote
    // the manifest) would find the port closed. Answer until a tick passes
    // with no connection left: it gets `drained` and says bye.
    if (!report_.timed_out) {
      do {
        poll_once();
      } while (!connections_.empty());
    }
    return report_;
  }

 private:
  bool work_finished() const {
    return report_.trials_completed + report_.trials_failed ==
           report_.trials_total;
  }

  // ---- Event loop -----------------------------------------------------------

  void poll_once() {
    std::vector<pollfd> fds;
    // Index bookkeeping: [0] lease listener, [1] optional metrics
    // listener, then lease connections, then HTTP connections.
    fds.push_back({listener_->fd(), POLLIN, 0});
    const std::size_t metrics_slot = fds.size();
    if (metrics_listener_) {
      fds.push_back({metrics_listener_->fd(), POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    std::vector<std::uint64_t> conn_ids;
    for (const auto& [id, conn] : connections_) {
      conn_ids.push_back(id);
      fds.push_back({conn.socket.fd(), POLLIN, 0});
    }
    const std::size_t http_base = fds.size();
    std::vector<std::size_t> http_ids;
    for (std::size_t i = 0; i < http_connections_.size(); ++i) {
      http_ids.push_back(i);
      fds.push_back({http_connections_[i].socket.fd(), POLLIN, 0});
    }

    const int timeout_ms =
        std::max(1, static_cast<int>(options_.tick_seconds * 1e3));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) return;

    if ((fds[0].revents & POLLIN) != 0) accept_connections();
    if (metrics_listener_ && (fds[metrics_slot].revents & POLLIN) != 0) {
      accept_metrics_connections();
    }
    for (std::size_t i = 0; i < conn_ids.size(); ++i) {
      if ((fds[conn_base + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        service_connection(conn_ids[i]);
      }
    }
    std::vector<std::size_t> http_done;
    for (std::size_t i = 0; i < http_ids.size(); ++i) {
      if ((fds[http_base + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (service_http(http_connections_[http_ids[i]])) {
          http_done.push_back(http_ids[i]);
        }
      }
    }
    for (auto it = http_done.rbegin(); it != http_done.rend(); ++it) {
      http_connections_.erase(http_connections_.begin() +
                              static_cast<std::ptrdiff_t>(*it));
    }
  }

  void accept_connections() {
    Socket conn = listener_->accept();
    if (!conn.valid()) {
      registry_.add_named("serve.accept_drops", 1);
      return;
    }
    Connection c;
    c.socket = std::move(conn);
    connections_.emplace(next_conn_id_++, std::move(c));
  }

  void accept_metrics_connections() {
    Socket conn = metrics_listener_->accept();
    if (!conn.valid()) return;
    HttpConnection http;
    http.socket = std::move(conn);
    http_connections_.push_back(std::move(http));
  }

  void service_connection(std::uint64_t conn_id) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    char buffer[64 * 1024];
    try {
      const std::size_t got =
          read_some(conn.socket, buffer, sizeof(buffer));
      if (got == 0) {
        drop_connection(conn_id, "eof");
        return;
      }
      conn.reader.feed(std::string_view(buffer, got));
      // Handlers only append to the outbox, so `conn` stays valid; a
      // handler that marks the connection closing (error / bye) ends the
      // read.
      while (!conn.closing) {
        auto payload = conn.reader.next();
        if (!payload) break;
        handle_message(conn_id, Message::parse(*payload));
      }
      flush(conn);
      if (conn.closing) drop_connection(conn_id, "closed");
    } catch (const proto_error& e) {
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: conn %llu protocol error: %s\n",
                     static_cast<unsigned long long>(conn_id), e.what());
      }
      registry_.add_named("serve.protocol_errors", 1);
      drop_connection(conn_id, "protocol error");
    } catch (const net_error& e) {
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: conn %llu net error: %s\n",
                     static_cast<unsigned long long>(conn_id), e.what());
      }
      drop_connection(conn_id, "net error");
    }
  }

  /// Tears one connection down and reclaims every lease it held — the
  /// dropped-worker path the byte-identity guarantee leans on.
  void drop_connection(std::uint64_t conn_id, const char* why) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    std::vector<std::uint64_t> held;
    for (const auto& [lease_id, lease] : leases_) {
      if (lease.conn_id == conn_id) held.push_back(lease_id);
    }
    for (const std::uint64_t lease_id : held) {
      reclaim_lease(lease_id, /*expired=*/false);
    }
    if (options_.verbose && !held.empty()) {
      std::fprintf(stderr,
                   "cid_serve: conn %llu dropped (%s), reclaimed %zu "
                   "lease(s)\n",
                   static_cast<unsigned long long>(conn_id), why,
                   held.size());
    }
    connections_.erase(it);
  }

  // ---- Lease bookkeeping ----------------------------------------------------

  void reclaim_lease(std::uint64_t lease_id, bool expired) {
    const auto it = leases_.find(lease_id);
    if (it == leases_.end()) return;
    const std::size_t trial_index = it->second.trial_index;
    leases_.erase(it);
    if (state_[trial_index] != TrialState::kLeased) return;
    if (expired) {
      ++report_.leases_expired;
      registry_.add_named("serve.leases_expired", 1);
    } else {
      ++report_.leases_disconnected;
      registry_.add_named("serve.leases_disconnected", 1);
    }
    requeue_trial(trial_index);
  }

  void requeue_trial(std::size_t trial_index) {
    if (++requeue_counts_[trial_index] > options_.max_requeues) {
      state_[trial_index] = TrialState::kFailed;
      ++report_.trials_failed;
      registry_.add_named("serve.trials_failed", 1);
      std::fprintf(stderr,
                   "cid_serve: trial (cell %zu, trial %zu) exceeded %d "
                   "requeues — permanently failed\n",
                   trial_index / trials_per_cell_,
                   trial_index % trials_per_cell_, options_.max_requeues);
      return;
    }
    state_[trial_index] = TrialState::kPending;
    queue_.push_back(trial_index);
  }

  void reclaim_expired() {
    const std::int64_t now = steady_ns();
    std::vector<std::uint64_t> expired;
    for (const auto& [lease_id, lease] : leases_) {
      if (lease.poisoned || now >= lease.deadline_ns) {
        expired.push_back(lease_id);
      }
    }
    for (const std::uint64_t lease_id : expired) {
      reclaim_lease(lease_id, /*expired=*/true);
    }
  }

  // ---- Message handlers -----------------------------------------------------

  void handle_message(std::uint64_t conn_id, const Message& message) {
    Connection& conn = connections_.at(conn_id);
    const std::string& type = message.type();
    if (conn.worker_id < 0 && type != "hello") {
      respond(conn, msg_error("handshake first: expected hello"));
      conn.closing = true;
      return;
    }
    if (type == "hello") handle_hello(conn, message);
    else if (type == "lease") handle_lease(conn_id, conn);
    else if (type == "renew") handle_renew(conn, message);
    else if (type == "complete") handle_complete(conn, message);
    else if (type == "requeue") handle_requeue(conn, message);
    else if (type == "metrics") handle_metrics(conn, message);
    else if (type == "bye") {
      respond(conn, msg_ack());
      conn.closing = true;
    } else {
      respond(conn, msg_error("unknown message type: " + type));
      conn.closing = true;
    }
  }

  void handle_hello(Connection& conn, const Message& message) {
    const std::int64_t version = message.get_int("v");
    if (version != kServeProtoVersion) {
      respond(conn, msg_error("protocol version mismatch: coordinator " +
                              std::to_string(kServeProtoVersion) +
                              ", worker " + std::to_string(version)));
      conn.closing = true;
      return;
    }
    const std::uint64_t fingerprint = decode_fingerprint(message);
    if (fingerprint != fingerprint_) {
      respond(conn, msg_error("grid fingerprint mismatch: serving " +
                              fingerprint_hex(fingerprint_) + ", worker " +
                              fingerprint_hex(fingerprint)));
      conn.closing = true;
      return;
    }
    conn.worker_id = static_cast<std::int64_t>(++report_.workers_seen);
    conn.worker_name = message.get_string("worker");
    registry_.add_named("serve.workers_seen", 1);
    respond(conn,
            msg_welcome(conn.worker_id,
                        static_cast<std::int64_t>(report_.trials_total),
                        static_cast<std::int64_t>(report_.trials_completed)));
  }

  /// Trials for the next grant on `conn`: 1 until the connection has a
  /// measured per-trial hold, then enough to hold about
  /// kBatchTargetSeconds of work, capped at kMaxGrantTrials and
  /// at an even share of the pending trials among connected workers.
  std::size_t batch_size(const Connection& conn) const {
    if (conn.trial_hold_ns <= 0) return 1;
    const double by_time =
        std::ceil(kBatchTargetSeconds * 1e9 /
                  static_cast<double>(conn.trial_hold_ns));
    const std::size_t k =
        by_time < static_cast<double>(kMaxGrantTrials)
            ? static_cast<std::size_t>(by_time)
            : static_cast<std::size_t>(kMaxGrantTrials);
    // The requester has said hello, so at least one worker is connected.
    const auto workers = static_cast<std::size_t>(std::count_if(
        connections_.begin(), connections_.end(),
        [](const auto& entry) { return entry.second.worker_id >= 0; }));
    const std::size_t share = (queue_.size() + workers - 1) / workers;
    return std::max<std::size_t>(1, std::min(k, share));
  }

  /// Grants the longest run of consecutive pending trials of one cell at
  /// the queue's front, up to batch_size(conn). Every trial gets its own
  /// lease (consecutive ids) and its own serve.lease_expire consultation.
  void handle_lease(std::uint64_t conn_id, Connection& conn) {
    if (queue_.empty()) {
      respond(conn, work_finished() ? msg_drained()
                                    : msg_wait(options_.wait_backoff_ms));
      return;
    }
    const std::size_t limit = batch_size(conn);
    const std::size_t first = queue_.front();
    std::size_t count = 0;
    while (count < limit && !queue_.empty() &&
           queue_.front() == first + count &&
           (count == 0 || (first + count) % trials_per_cell_ != 0)) {
      queue_.pop_front();
      ++count;
    }

    const std::uint64_t first_lease = next_lease_id_;
    const std::int64_t now = steady_ns();
    for (std::size_t i = 0; i < count; ++i) {
      state_[first + i] = TrialState::kLeased;
      Lease lease;
      lease.trial_index = first + i;
      lease.conn_id = conn_id;
      lease.granted_ns = now;
      lease.batch = static_cast<std::uint32_t>(count);
      lease.deadline_ns =
          now + static_cast<std::int64_t>(options_.lease_ttl_seconds * 1e9);
      // Deterministic lease loss: consulted once per leased trial, so the
      // schedule indexes trials granted, not wall-clock races. A poisoned
      // lease can never produce a completion.
      const util::FaultAction fault = util::fault_point("serve.lease_expire");
      if (fault.kind != util::FaultKind::kNone) {
        lease.poisoned = true;
        registry_.add_named("serve.leases_poisoned", 1);
      }
      leases_.emplace(next_lease_id_++, lease);
    }
    report_.leases_granted += count;
    registry_.add_named("serve.leases_granted",
                        static_cast<std::int64_t>(count));
    registry_.add_named("serve.grants", 1);
    respond(conn,
            msg_grant(first_lease,
                      static_cast<std::uint32_t>(first / trials_per_cell_),
                      static_cast<std::uint32_t>(first % trials_per_cell_),
                      static_cast<std::uint32_t>(count),
                      static_cast<std::int64_t>(
                          options_.lease_ttl_seconds * 1e3)));
  }

  void handle_renew(Connection& conn, const Message& message) {
    const auto lease_id =
        static_cast<std::uint64_t>(message.get_int("lease_id"));
    const auto it = leases_.find(lease_id);
    if (it == leases_.end() || it->second.poisoned ||
        steady_ns() >= it->second.deadline_ns) {
      respond(conn, msg_lease_lost(lease_id));
      return;
    }
    it->second.deadline_ns =
        steady_ns() +
        static_cast<std::int64_t>(options_.lease_ttl_seconds * 1e9);
    registry_.add_named("serve.leases_renewed", 1);
    respond(conn, msg_renewed(lease_id));
  }

  void handle_complete(Connection& conn, const Message& message) {
    const auto lease_id =
        static_cast<std::uint64_t>(message.get_int("lease_id"));
    const auto cell = static_cast<std::uint32_t>(message.get_int("cell"));
    const auto trial = static_cast<std::uint32_t>(message.get_int("trial"));
    const auto it = leases_.find(lease_id);
    const std::size_t trial_index =
        static_cast<std::size_t>(cell) * trials_per_cell_ +
        static_cast<std::size_t>(trial);
    const bool live = it != leases_.end() && !it->second.poisoned &&
                      it->second.trial_index == trial_index &&
                      trial_index < state_.size();
    if (!live) {
      ++report_.completions_rejected;
      registry_.add_named("serve.completions_rejected", 1);
      respond(conn, msg_lease_lost(lease_id));
      return;
    }

    const sweep::TrialOutcome outcome = decode_outcome(message);
    const std::int64_t hold_ns = steady_ns() - it->second.granted_ns;
    conn.trial_hold_ns = std::max<std::int64_t>(1, hold_ns / it->second.batch);
    const double latency_ms = static_cast<double>(hold_ns) / 1e6;
    leases_.erase(it);
    state_[trial_index] = TrialState::kDone;
    completed_[{cell, trial}] = outcome;
    ++report_.trials_completed;
    registry_.add_named("serve.trials_completed", 1);
    registry_.observe(lease_latency_hist_, latency_ms);
    manifest_->append(cell, trial, outcome);
    respond(conn, msg_ack());
    if (options_.verbose) {
      std::fprintf(stderr, "cid_serve: %zu/%zu done (cell %u trial %u by "
                   "worker %lld)\n",
                   report_.trials_completed, report_.trials_total, cell,
                   trial, static_cast<long long>(conn.worker_id));
    }
  }

  void handle_requeue(Connection& conn, const Message& message) {
    const auto lease_id =
        static_cast<std::uint64_t>(message.get_int("lease_id"));
    const auto it = leases_.find(lease_id);
    if (it != leases_.end()) {
      const std::size_t trial_index = it->second.trial_index;
      leases_.erase(it);
      if (state_[trial_index] == TrialState::kLeased) {
        ++report_.requeues;
        registry_.add_named("serve.requeues", 1);
        requeue_trial(trial_index);
      }
    }
    respond(conn, msg_ack());
  }

  void handle_metrics(Connection& conn, const Message& message) {
    if (message.get_int("metrics_version") == obs::kMetricsVersion) {
      // Snapshots are cumulative; keep only the latest per worker and sum
      // across workers at exposition time.
      worker_counters_[conn.worker_id] = message.get_counters("counters");
      registry_.add_named("serve.metrics_pushes", 1);
    }
    respond(conn, msg_ack());
  }

  void respond(Connection& conn, const std::string& payload) {
    conn.outbox += encode_frame(payload);
  }

  void flush(Connection& conn) {
    if (conn.outbox.empty()) return;
    std::string out;
    out.swap(conn.outbox);
    send_frame(conn.socket, out);
  }

  // ---- Fleet metrics --------------------------------------------------------

  obs::MetricsSnapshot fleet_snapshot() {
    obs::MetricsSnapshot snapshot = registry_.snapshot();
    std::map<std::string, std::int64_t> merged;
    for (const obs::CounterValue& c : snapshot.counters) {
      merged[c.name] += c.value;
    }
    // Coordinator-side persist I/O (the live manifest) from the global
    // registry, then every worker's latest pushed snapshot.
    const obs::PersistIoTotals io = obs::persist_io_totals();
    merged["persist.bytes_written"] += io.bytes_written;
    merged["persist.writes"] += io.writes;
    merged["persist.fsyncs"] += io.fsyncs;
    merged["persist.fflushes"] += io.fflushes;
    merged["persist.write_failures"] += io.write_failures;
    merged["persist.write_retries"] += io.write_retries;
    for (const auto& [worker_id, counters] : worker_counters_) {
      for (const auto& [name, value] : counters) merged[name] += value;
    }
    merged["serve.workers_connected"] =
        static_cast<std::int64_t>(connections_.size());
    merged["serve.trials_pending"] = static_cast<std::int64_t>(queue_.size());
    merged["serve.leases_outstanding"] =
        static_cast<std::int64_t>(leases_.size());
    snapshot.counters.clear();
    snapshot.counters.reserve(merged.size());
    for (const auto& [name, value] : merged) {
      snapshot.counters.push_back({name, value});
    }
    return snapshot;
  }

  /// One-shot HTTP: buffer until the blank line, answer any request with
  /// the Prometheus exposition, close. Returns true when the connection
  /// is finished (served or dead).
  bool service_http(HttpConnection& http) {
    char buffer[8 * 1024];
    std::size_t got = 0;
    try {
      got = read_some(http.socket, buffer, sizeof(buffer));
    } catch (const net_error&) {
      return true;
    }
    if (got == 0) return true;
    http.request.append(buffer, got);
    if (http.request.size() > 64 * 1024) return true;  // not HTTP; drop
    if (http.request.find("\r\n\r\n") == std::string::npos &&
        http.request.find("\n\n") == std::string::npos) {
      return false;  // headers still incomplete
    }
    const std::string body = obs::prometheus_text(fleet_snapshot());
    std::string response =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n" + body;
    try {
      send_frame(http.socket, response);  // send_frame = write fully
    } catch (const net_error&) {
    }
    registry_.add_named("serve.metrics_scrapes", 1);
    return true;
  }

  // ---- Shutdown -------------------------------------------------------------

  void finish() {
    manifest_->close();
    report_.complete = work_finished() && report_.trials_failed == 0;

    if (report_.complete) {
      // Canonical rewrite: (cell, trial)-sorted records, byte-identical
      // to an unsharded --threads 1 run's manifest whatever order the
      // fleet completed trials in.
      persist::MergeReport merged;
      merged.fingerprint = fingerprint_;
      merged.cells = static_cast<std::uint32_t>(num_cells_);
      merged.trials_per_cell = static_cast<std::uint32_t>(trials_per_cell_);
      merged.completed = completed_;
      const std::string final_path = options_.final_manifest_path.empty()
                                         ? options_.manifest_path
                                         : options_.final_manifest_path;
      persist::write_manifest_canonical(final_path, merged);
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: wrote canonical manifest %s\n",
                     final_path.c_str());
      }
    }
    if (!options_.metrics_prom_path.empty()) {
      obs::write_prometheus(options_.metrics_prom_path, fleet_snapshot());
    }
  }

  const sweep::SweepGrid& grid_;
  const CoordinatorOptions& options_;
  std::size_t num_cells_ = 0;
  std::size_t trials_per_cell_ = 0;
  std::uint64_t fingerprint_ = 0;

  std::vector<TrialState> state_;
  std::vector<int> requeue_counts_;
  std::deque<std::size_t> queue_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, sweep::TrialOutcome>
      completed_;
  std::optional<persist::ManifestWriter> manifest_;

  std::optional<TcpListener> listener_;
  std::optional<TcpListener> metrics_listener_;
  std::map<std::uint64_t, Connection> connections_;
  std::vector<HttpConnection> http_connections_;
  std::uint64_t next_conn_id_ = 1;

  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;

  obs::MetricsRegistry registry_;
  obs::MetricsRegistry::HistogramId lease_latency_hist_ = 0;
  std::map<std::int64_t, std::map<std::string, std::int64_t>>
      worker_counters_;

  CoordinatorReport report_;
};

}  // namespace

CoordinatorReport serve_grid(const sweep::SweepGrid& grid,
                             const CoordinatorOptions& options) {
  Coordinator coordinator(grid, options);
  return coordinator.run();
}

}  // namespace cid::serve
