#include "serve/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "persist/manifest.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "sweep/scenario.hpp"
#include "util/fault.hpp"

namespace cid::serve {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Request/response channel over one socket. pipeline() holds the mutex
/// across the send AND the reads of every response, so the main loop and
/// the renewer thread can never interleave their conversations. Any
/// failure inside it breaks the channel for both threads: a stream that
/// failed mid-conversation cannot be resynchronized.
class Channel {
 public:
  Channel(Socket socket, double recv_timeout_seconds)
      : socket_(std::move(socket)) {
    set_recv_timeout(socket_, recv_timeout_seconds);
  }

  Message rpc(const std::string& payload) {
    return std::move(pipeline({payload}).front());
  }

  /// Writes every request in one send, then reads one response per
  /// request, in order.
  std::vector<Message> pipeline(const std::vector<std::string>& payloads) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (broken_) throw net_error("connection failed earlier");
    try {
      std::string frames;
      for (const std::string& payload : payloads) {
        frames += encode_frame(payload);
      }
      send_frame(socket_, frames);
      std::vector<Message> responses;
      responses.reserve(payloads.size());
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        responses.push_back(Message::parse(read_frame()));
      }
      return responses;
    } catch (...) {
      broken_ = true;
      throw;
    }
  }

 private:
  std::string read_frame() {
    while (true) {
      if (auto payload = reader_.next()) return *payload;
      char buffer[16 * 1024];
      const std::size_t got = read_some(socket_, buffer, sizeof(buffer));
      if (got == 0) throw net_error("coordinator closed the connection");
      reader_.feed(std::string_view(buffer, got));
    }
  }

  std::mutex mutex_;
  bool broken_ = false;
  Socket socket_;
  FrameReader reader_;
};

/// The connection's lease renewer: one background thread that, every
/// ttl * renew_fraction, renews every lease the worker holds (one
/// pipelined write). A lease reported lost is dropped from the set; its
/// completion will be rejected the same way. Channel failures stop the
/// thread — the main loop finds the dead connection on its next request.
class Renewer {
 public:
  Renewer(Channel& channel, double renew_fraction)
      : channel_(channel), renew_fraction_(renew_fraction) {
    thread_ = std::thread([this] { loop(); });
  }

  ~Renewer() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Starts renewing `grant`'s leases.
  void hold(const Grant& grant) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      interval_ms_ = static_cast<double>(grant.ttl_ms) * renew_fraction_;
      for (std::uint32_t i = 0; i < grant.count; ++i) {
        held_.insert(grant.lease_id + i);
      }
    }
    cv_.notify_all();
  }

  /// Stops renewing every lease (their completions are about to be sent).
  void release_all() {
    const std::lock_guard<std::mutex> lock(mutex_);
    held_.clear();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !held_.empty(); });
      if (stop_) return;
      if (cv_.wait_for(lock,
                       std::chrono::duration<double, std::milli>(
                           interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      const std::vector<std::uint64_t> leases(held_.begin(), held_.end());
      if (leases.empty()) continue;
      std::vector<std::string> requests;
      for (const std::uint64_t lease_id : leases) {
        requests.push_back(msg_renew(lease_id));
      }
      lock.unlock();
      std::vector<Message> responses;
      try {
        responses = channel_.pipeline(requests);
      } catch (...) {
        return;  // channel dead; the main loop will find out
      }
      lock.lock();
      for (std::size_t i = 0; i < leases.size(); ++i) {
        if (responses[i].type() != "renewed") held_.erase(leases[i]);
      }
    }
  }

  Channel& channel_;
  const double renew_fraction_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  double interval_ms_ = 0.0;
  std::set<std::uint64_t> held_;
  std::thread thread_;
};

class Worker {
 public:
  Worker(const sweep::SweepGrid& grid, const WorkerOptions& options)
      : grid_(grid), options_(options) {
    num_protocols_ = grid.protocols.size();
    instances_.resize(grid.ns.size());
    cursors_.resize(grid.ns.size() * num_protocols_);
    fingerprint_ = persist::grid_fingerprint(grid);
  }

  WorkerReport run() {
    connect();
    while (true) {
      if (options_.max_trials >= 0 &&
          static_cast<std::int64_t>(report_.trials_completed) >=
              options_.max_trials) {
        break;
      }
      try {
        const std::int64_t ask_ns = steady_ns();
        const Message response = channel_->rpc(msg_lease());
        queue_wait_ns_ += steady_ns() - ask_ns;
        const std::string& type = response.type();
        if (type == "drained") {
          report_.drained = true;
          break;
        }
        if (type == "wait") {
          ++report_.waits;
          const std::int64_t wait_start = steady_ns();
          sleep_ms(static_cast<double>(response.get_int("backoff_ms")));
          queue_wait_ns_ += steady_ns() - wait_start;
          continue;
        }
        if (type != "grant") {
          throw proto_error("unexpected response to lease: " + type);
        }
        run_batch(decode_grant(
            response, static_cast<std::int64_t>(cursors_.size()),
            grid_.trials));
        push_metrics();
      } catch (const net_error& e) {
        reconnect(e.what());
      } catch (const proto_error& e) {
        // A garbled frame poisons the connection: reconnect, and leave
        // whatever it leased to the coordinator's reclaim.
        reconnect(e.what());
      }
    }
    farewell();
    return report_;
  }

 private:
  void connect() {
    net_error last("never connected");
    for (int attempt = 1; attempt <= std::max(1, options_.connect_attempts);
         ++attempt) {
      try {
        Socket socket = tcp_connect(options_.host, options_.port);
        auto channel = std::make_unique<Channel>(
            std::move(socket), options_.recv_timeout_seconds);
        const Message response =
            channel->rpc(msg_hello(fingerprint_, options_.name));
        if (response.type() == "error") {
          // A handshake rejection is fatal, not retryable: the grids or
          // protocol versions genuinely differ.
          throw std::runtime_error("cid_sweep worker: coordinator rejected "
                                   "handshake: " +
                                   response.get_string("message"));
        }
        if (response.type() != "welcome") {
          throw std::runtime_error(
              "cid_sweep worker: unexpected handshake response: " +
              response.type());
        }
        worker_id_ = response.get_int("worker_id");
        channel_ = std::move(channel);
        if (options_.renew_fraction > 0.0) {
          renewer_ = std::make_unique<Renewer>(*channel_,
                                               options_.renew_fraction);
        }
        if (options_.verbose) {
          std::fprintf(stderr,
                       "cid_sweep worker %s: connected as worker %lld "
                       "(%lld/%lld trials already done)\n",
                       options_.name.c_str(),
                       static_cast<long long>(worker_id_),
                       static_cast<long long>(response.get_int(
                           "trials_done")),
                       static_cast<long long>(response.get_int(
                           "trials_total")));
        }
        return;
      } catch (const net_error& e) {
        last = e;
        if (attempt < options_.connect_attempts) {
          sleep_ms(options_.connect_backoff_ms * attempt);
        }
      }
    }
    throw last;
  }

  /// Closes the connection; the renewer stops first, since it talks
  /// through the channel.
  void disconnect() {
    renewer_.reset();
    channel_.reset();
  }

  void reconnect(const char* why) {
    ++report_.reconnects;
    registry_.add_named("sweep.reconnects", 1);
    if (options_.verbose) {
      std::fprintf(stderr,
                   "cid_sweep worker %s: connection lost (%s) — "
                   "reconnecting\n",
                   options_.name.c_str(), why);
    }
    disconnect();
    connect();
  }

  const sweep::ScenarioInstance& instance(std::size_t n_index) {
    if (instances_[n_index] == nullptr) {
      instances_[n_index] =
          sweep::make_scenario(grid_.scenario, grid_.ns[n_index]);
    }
    return *instances_[n_index];
  }

  /// The cell's stream cursor, positioned at `trial`. A grant that
  /// continues the previous one on this cell costs no extra splits; one
  /// that starts behind the cursor restarts it.
  sweep::TrialStreamCursor& cursor_at(std::uint32_t cell,
                                      std::uint32_t trial) {
    std::optional<sweep::TrialStreamCursor>& cursor = cursors_[cell];
    if (!cursor || cursor->next_trial() > trial) {
      cursor.emplace(grid_.master_seed, cell);
    }
    while (cursor->next_trial() < trial) (void)cursor->next();
    return *cursor;
  }

  /// Runs one trial under the local runner's retry discipline, verbatim:
  /// fresh stream copy and zeroed stats per attempt, the same sweep.trial
  /// fault site, crash always propagating, capped exponential backoff.
  /// Returns false (with `error`) when every attempt failed.
  bool run_trial(std::size_t cell, const Rng& stream,
                 sweep::TrialOutcome& outcome, std::string& error) {
    const std::size_t n_index = cell / num_protocols_;
    const std::size_t protocol_index = cell % num_protocols_;
    const int max_attempts = std::max(1, options_.trial_max_attempts);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      Rng trial_rng = stream;
      sweep::TrialStats stats;
      try {
        if (util::faults_armed()) {
          const util::FaultAction fault = util::fault_point("sweep.trial");
          if (fault.kind != util::FaultKind::kNone) {
            throw std::runtime_error("injected trial fault (" +
                                     fault.detail + ")");
          }
        }
        outcome = instance(n_index).run_trial(
            grid_.protocols[protocol_index], grid_.dynamics, trial_rng,
            &stats);
        registry_.add_named("sweep.ran_rounds", stats.ran_rounds);
        registry_.add_named("sweep.latency_evals", stats.latency_evals);
        return true;
      } catch (const util::fault_crash&) {
        throw;  // a crash is a kill, never an error to isolate
      } catch (const std::exception& e) {
        error = e.what();
        if (attempt >= max_attempts) break;
        ++report_.trial_retries;
        registry_.add_named("sweep.trial_retries", 1);
        if (options_.retry_backoff_ms > 0.0) {
          double delay_ms = options_.retry_backoff_ms;
          for (int d = 1; d < attempt; ++d) delay_ms *= 2.0;
          delay_ms = std::min(delay_ms, options_.retry_backoff_max_ms);
          sleep_ms(delay_ms);
        }
      }
    }
    return false;
  }

  /// Runs a grant's trials in order, then answers every lease in one
  /// pipelined write: complete for a trial that ran, requeue for one that
  /// exhausted its retries or lies past this worker's max_trials budget.
  void run_batch(const Grant& grant) {
    if (renewer_ != nullptr) renewer_->hold(grant);
    std::size_t runnable = grant.count;
    if (options_.max_trials >= 0) {
      runnable = std::min<std::size_t>(
          runnable, static_cast<std::size_t>(options_.max_trials) -
                        report_.trials_completed);
    }
    sweep::TrialStreamCursor& cursor = cursor_at(grant.cell, grant.trial);
    std::vector<std::string> requests;
    std::vector<bool> completes;
    requests.reserve(grant.count);
    for (std::uint32_t i = 0; i < grant.count; ++i) {
      const std::uint64_t lease_id = grant.lease_id + i;
      const std::uint32_t trial = grant.trial + i;
      // Every trial of the grant advances the cursor, run or not, so the
      // next grant of this cell continues it.
      const Rng stream = cursor.next();
      if (i >= runnable) {
        requests.push_back(msg_requeue(lease_id, "worker trial budget"));
        completes.push_back(false);
        continue;
      }
      sweep::TrialOutcome outcome;
      std::string error;
      if (run_trial(grant.cell, stream, outcome, error)) {
        requests.push_back(
            msg_complete(lease_id, grant.cell, trial, outcome));
        completes.push_back(true);
        continue;
      }
      // Local budget exhausted: hand the trial back for another worker.
      ++report_.trials_requeued;
      registry_.add_named("sweep.trial_failures", 1);
      std::fprintf(stderr,
                   "cid_sweep worker %s: trial (cell %u trial %u) FAILED "
                   "after %d attempt(s): %s — requeueing\n",
                   options_.name.c_str(), grant.cell, trial,
                   std::max(1, options_.trial_max_attempts), error.c_str());
      requests.push_back(msg_requeue(lease_id, error));
      completes.push_back(false);
    }
    if (renewer_ != nullptr) renewer_->release_all();

    const std::vector<Message> responses = channel_->pipeline(requests);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!completes[i]) continue;
      if (responses[i].type() == "ack") {
        ++report_.trials_completed;
        registry_.add_named("sweep.trials_run", 1);
      } else {
        // lease_lost: expired or poisoned underneath us. Not an error —
        // the coordinator has already re-granted the trial.
        ++report_.leases_lost;
        registry_.add_named("sweep.leases_lost", 1);
      }
    }
  }

  void push_metrics() {
    if (!options_.push_metrics) return;
    registry_.add_named("sweep.queue_wait_ns",
                        queue_wait_ns_ - queue_wait_pushed_ns_);
    queue_wait_pushed_ns_ = queue_wait_ns_;
    std::map<std::string, std::int64_t> counters;
    for (const obs::CounterValue& c : registry_.snapshot().counters) {
      counters.emplace(c.name, c.value);
    }
    channel_->rpc(msg_metrics(counters));
  }

  void farewell() {
    if (channel_ == nullptr) return;
    renewer_.reset();
    try {
      push_metrics();
      channel_->rpc(msg_bye());
    } catch (const net_error&) {
      // Already drained; a lost goodbye costs nothing.
    } catch (const proto_error&) {
    }
    disconnect();
  }

  const sweep::SweepGrid& grid_;
  const WorkerOptions& options_;
  std::size_t num_protocols_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::unique_ptr<sweep::ScenarioInstance>> instances_;
  std::vector<std::optional<sweep::TrialStreamCursor>> cursors_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<Renewer> renewer_;  // after channel_: destroyed first
  std::int64_t worker_id_ = -1;
  obs::MetricsRegistry registry_;
  std::int64_t queue_wait_ns_ = 0;
  std::int64_t queue_wait_pushed_ns_ = 0;
  WorkerReport report_;
};

}  // namespace

WorkerReport run_worker(const sweep::SweepGrid& grid,
                        const WorkerOptions& options) {
  Worker worker(grid, options);
  return worker.run();
}

}  // namespace cid::serve
