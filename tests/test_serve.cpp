// Loopback end-to-end tests of the trial-lease coordinator
// (src/serve/coordinator.hpp + src/serve/worker.hpp).
//
// The tentpole claim: a fleet run — coordinator plus N workers over TCP,
// including workers killed mid-lease, poisoned leases, and worker-side
// requeues — produces a final manifest byte-identical to what a local
// --threads 1 run_sweep writes for the same grid. Trial outcomes are a
// pure function of (grid, master_seed) via sweep::derive_trial_rng, the
// coordinator rewrites the manifest canonically at drain, and so no
// amount of lease churn may change a single byte.
//
// Worker death is simulated deterministically: sweep.trial:crash with a
// throwing crash handler unwinds one worker thread mid-lease (its socket
// closes exactly as a SIGKILL would close it), and serve.lease_expire
// poisons a grant so its completion is rejected without depending on
// real TTL timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "persist/binio.hpp"
#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "serve/worker.hpp"
#include "sweep/runner.hpp"
#include "util/fault.hpp"

namespace cid::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Scenario family 1: heterogeneous linear load balancing, two protocols.
sweep::SweepGrid load_balancing_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation,combined");
  grid.ns = {200, 500};
  grid.trials = 4;  // 4 cells x 4 = 16 trials
  grid.master_seed = 31;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

// Scenario family 2: identical monomial links (the paper's uniform case).
sweep::SweepGrid singleton_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "singleton-uniform";
  grid.scenario.params = {{"m", 3.0}, {"degree", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation,combined");
  grid.ns = {100, 300};
  grid.trials = 3;  // 4 cells x 3 = 12 trials
  grid.master_seed = 77;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

// The ground truth every fleet run is compared against: a local,
// unsharded, single-threaded sweep's manifest bytes.
std::string reference_manifest_bytes(const sweep::SweepGrid& grid,
                                     const std::string& name) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  sweep::SweepOptions options;
  options.threads = 1;
  options.manifest_path = path;
  const sweep::SweepResult result = sweep::run_sweep(grid, options);
  EXPECT_TRUE(result.complete);
  std::string bytes = persist::slurp_file(path);
  std::remove(path.c_str());
  return bytes;
}

CoordinatorOptions coordinator_options(const std::string& manifest,
                                       std::promise<std::uint16_t>& port) {
  CoordinatorOptions options;
  options.manifest_path = manifest;
  options.tick_seconds = 0.01;
  options.max_seconds = 120.0;  // CI safety net, never the expected exit
  options.on_listening = [&port](std::uint16_t lease_port, std::uint16_t) {
    port.set_value(lease_port);
  };
  return options;
}

// A raw client connection; reads time out instead of hanging.
Socket raw_connect(std::uint16_t port) {
  Socket socket = tcp_connect("127.0.0.1", port);
  set_recv_timeout(socket, 10.0);
  return socket;
}

// Faults and the crash handler are process-global; every test must leave
// them disarmed for its neighbors.
class Serve : public ::testing::Test {
 protected:
  void TearDown() override {
    util::clear_faults();
    util::set_fault_crash_handler(nullptr);
  }
};

// The core acceptance claim, for two scenario families: coordinator + 3
// workers lands the exact bytes of the local single-threaded run.
TEST_F(Serve, FleetManifestByteIdenticalToLocalRun) {
  struct Family {
    const char* name;
    sweep::SweepGrid grid;
  };
  const std::vector<Family> families = {
      {"load-balancing", load_balancing_grid()},
      {"singleton-uniform", singleton_grid()},
  };
  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    const std::string reference = reference_manifest_bytes(
        family.grid, std::string("serve_ref_") + family.name + ".manifest");

    const std::string manifest =
        temp_path(std::string("serve_fleet_") + family.name + ".manifest");
    std::remove(manifest.c_str());
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);

    CoordinatorReport report;
    std::thread coordinator(
        [&] { report = serve_grid(family.grid, options); });
    const std::uint16_t port = port_promise.get_future().get();
    // Held open until every worker is done (as in run_fleet): a worker
    // thread scheduled after the others drained the grid still finds the
    // port open and is told `drained`. It sends no hello, so it is not
    // counted in workers_seen.
    Socket keeper = raw_connect(port);

    std::vector<WorkerReport> workers(3);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      threads.emplace_back([&, i] {
        WorkerOptions worker;
        worker.port = port;
        worker.name = "w" + std::to_string(i);
        workers[i] = run_worker(family.grid, worker);
      });
    }
    for (std::thread& t : threads) t.join();
    keeper.close();
    coordinator.join();

    EXPECT_TRUE(report.complete);
    EXPECT_FALSE(report.timed_out);
    EXPECT_EQ(report.trials_failed, 0u);
    EXPECT_EQ(report.workers_seen, 3u);
    std::size_t fleet_trials = 0;
    for (const WorkerReport& w : workers) {
      EXPECT_TRUE(w.drained);
      fleet_trials += w.trials_completed;
    }
    EXPECT_EQ(fleet_trials, report.trials_total);
    EXPECT_EQ(persist::slurp_file(manifest), reference);
    std::remove(manifest.c_str());
  }
}

// The ISSUE acceptance scenario: one worker is killed mid-lease (crash
// fault while it holds a grant; its socket closes exactly as a kill
// would), the coordinator reclaims the dropped lease, the survivors
// drain the grid — and the bytes still match the local run.
TEST_F(Serve, WorkerKilledMidLeaseIsReclaimedWithoutChangingBytes) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_kill_ref.manifest");

  const std::string manifest = temp_path("serve_kill_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  // The 2nd consultation of sweep.trial across the fleet crashes: some
  // worker dies between grant and complete, deterministically once.
  util::set_fault_crash_handler(+[](const char* site) {
    throw util::fault_crash(std::string("injected kill at ") + site);
  });
  util::configure_faults("sweep.trial:crash:hit=2");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();
  Socket keeper = raw_connect(port);  // as in run_fleet

  std::atomic<int> killed{0};
  std::vector<WorkerReport> workers(3);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back([&, i] {
      WorkerOptions worker;
      worker.port = port;
      worker.name = "w" + std::to_string(i);
      try {
        workers[i] = run_worker(grid, worker);
      } catch (const util::fault_crash&) {
        killed.fetch_add(1);  // this worker "died"; its socket is gone
      }
    });
  }
  for (std::thread& t : threads) t.join();
  keeper.close();
  coordinator.join();

  EXPECT_EQ(killed.load(), 1);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.trials_failed, 0u);
  // The kill was mid-lease, so the drop was observed as a disconnect (or,
  // if the TTL raced first, an expiry) and the trial was re-granted.
  EXPECT_GE(report.leases_disconnected + report.leases_expired, 1u);
  EXPECT_GT(report.leases_granted, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// serve.lease_expire poisons the first grant: its completion is rejected
// (lease_lost at the worker), the trial is reclaimed on the next tick and
// re-granted — no TTL timing involved — and the bytes still match.
TEST_F(Serve, PoisonedLeaseIsRejectedReclaimedAndRegranted) {
  const sweep::SweepGrid grid = singleton_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_poison_ref.manifest");

  const std::string manifest = temp_path("serve_poison_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  util::configure_faults("serve.lease_expire:err:hit=1");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  WorkerOptions worker;
  worker.port = port;
  worker.name = "poisoned";
  worker.renew_fraction = 0.0;  // expiry semantics under test, no renewer
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_GE(report.leases_expired, 1u);  // the poisoned grant
  EXPECT_EQ(report.leases_granted, report.trials_total + 1);
  EXPECT_GE(worker_report.leases_lost, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// A worker whose local retry budget is exhausted hands the trial back
// (requeue) instead of wedging it; the coordinator re-grants and the
// trial lands on a later lease with the exact same bytes.
TEST_F(Serve, WorkerRequeueReturnsTheTrialForRegrant) {
  const sweep::SweepGrid grid = load_balancing_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_requeue_ref.manifest");

  const std::string manifest = temp_path("serve_requeue_fleet.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);

  // First trial attempt fails; with trial_max_attempts=1 the worker has
  // no local retry left and must requeue.
  util::configure_faults("sweep.trial:err:hit=1");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();

  WorkerOptions worker;
  worker.port = port;
  worker.name = "requeuer";
  worker.trial_max_attempts = 1;
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.requeues, 1u);
  EXPECT_EQ(worker_report.trials_requeued, 1u);
  EXPECT_EQ(worker_report.trials_completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// Restarting the coordinator over a completed live manifest resumes every
// trial — no worker needed — and the canonical rewrite is stable: serving
// twice produces the same bytes as serving once, which are the local
// run's bytes.
TEST_F(Serve, ResumedManifestServesToCompletionWithoutWorkers) {
  const sweep::SweepGrid grid = singleton_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_resume_ref.manifest");

  const std::string manifest = temp_path("serve_resume.manifest");
  std::remove(manifest.c_str());
  {
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    CoordinatorReport report;
    std::thread coordinator([&] { report = serve_grid(grid, options); });
    const std::uint16_t port = port_promise.get_future().get();
    WorkerOptions worker;
    worker.port = port;
    run_worker(grid, worker);
    coordinator.join();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.trials_resumed, 0u);
  }
  {
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    const CoordinatorReport report = serve_grid(grid, options);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.trials_resumed, report.trials_total);
    EXPECT_EQ(report.leases_granted, 0u);
  }
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// ---- Batched leases ---------------------------------------------------------

// One load-balancing cell of four short trials: a grant sized for 10 ms
// of them is normally capped by the cell, so after a connection's first
// trial its next grant is the other three.
sweep::SweepGrid four_trial_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 2.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {60};
  grid.trials = 4;
  grid.master_seed = 5;
  grid.dynamics.max_rounds = 500;
  return grid;
}

// One blocking request/response on a raw client socket.
Message raw_rpc(const Socket& socket, const std::string& payload) {
  send_frame(socket, encode_frame(payload));
  FrameReader reader;
  char buffer[4096];
  for (;;) {
    if (auto frame = reader.next()) return Message::parse(*frame);
    const std::size_t got = read_some(socket, buffer, sizeof(buffer));
    if (got == 0) throw net_error("coordinator closed before responding");
    reader.feed(std::string_view(buffer, got));
  }
}

// Reads until EOF; throws net_error (timeout) if the peer never closes.
void expect_eof(const Socket& socket) {
  char buffer[4096];
  while (read_some(socket, buffer, sizeof(buffer)) != 0) {
  }
}

// Runs `count` workers to the end. A raw connection stays open meanwhile:
// the coordinator exits once the grid has drained and no connection is
// left, so without it a worker that starts after the others drained a
// small grid would find the port closed.
std::vector<WorkerReport> run_fleet(const sweep::SweepGrid& grid,
                                    std::uint16_t port, std::size_t count) {
  Socket keeper = raw_connect(port);
  std::vector<WorkerReport> workers(count);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      WorkerOptions worker;
      worker.port = port;
      worker.name = "w" + std::to_string(i);
      workers[i] = run_worker(grid, worker);
    });
  }
  for (std::thread& t : threads) t.join();
  keeper.close();
  return workers;
}

// The fleet lands the local run's bytes with one, two and three workers.
TEST_F(Serve, FleetManifestByteIdenticalForOneTwoAndThreeWorkers) {
  for (const sweep::SweepGrid& grid : {load_balancing_grid(),
                                       singleton_grid()}) {
    const std::string reference =
        reference_manifest_bytes(grid, "serve_sizes_ref.manifest");
    for (std::size_t fleet = 1; fleet <= 3; ++fleet) {
      SCOPED_TRACE(grid.scenario.name + " x" + std::to_string(fleet));
      const std::string manifest = temp_path("serve_sizes.manifest");
      std::remove(manifest.c_str());
      std::promise<std::uint16_t> port_promise;
      const CoordinatorOptions options =
          coordinator_options(manifest, port_promise);
      CoordinatorReport report;
      std::thread coordinator([&] { report = serve_grid(grid, options); });
      run_fleet(grid, port_promise.get_future().get(), fleet);
      coordinator.join();
      EXPECT_TRUE(report.complete);
      EXPECT_EQ(report.leases_granted, report.trials_total);
      EXPECT_EQ(persist::slurp_file(manifest), reference);
      std::remove(manifest.c_str());
    }
  }
}

// A worker dies on the 3rd trial of a 3-trial batch. The batch's leases
// were never acked, so exactly those three are reclaimed as disconnects
// and re-granted, and the bytes do not change.
TEST_F(Serve, WorkerKilledMidBatchLosesExactlyThatBatch) {
  const sweep::SweepGrid grid = four_trial_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_batch_kill_ref.manifest");
  const std::string manifest = temp_path("serve_batch_kill.manifest");
  util::set_fault_crash_handler(+[](const char* site) {
    throw util::fault_crash(std::string("injected kill at ") + site);
  });

  // Grant 1 is trial 0 alone (sweep.trial hit 1); grant 2 is normally the
  // rest of the cell, trials 1-3 (hits 2-4), so hit 4 kills the worker on
  // its 3rd trial. Batch sizes follow measured trial times, though, and a
  // starved scheduler can split the cell 1+2+1 instead. Whatever the
  // split, the kill is on the cell's last trial, so the dying batch is
  // exactly what the doomed worker had not got acked. Attempts repeat
  // until one kill lands on a 3-trial batch.
  bool third_of_three = false;
  for (int attempt = 0; attempt < 8 && !third_of_three; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    std::remove(manifest.c_str());
    util::configure_faults("sweep.trial:crash:hit=4");
    std::promise<std::uint16_t> port_promise;
    const CoordinatorOptions options =
        coordinator_options(manifest, port_promise);
    CoordinatorReport report;
    std::thread coordinator([&] { report = serve_grid(grid, options); });
    const std::uint16_t port = port_promise.get_future().get();
    WorkerOptions doomed;
    doomed.port = port;
    doomed.name = "doomed";
    EXPECT_THROW(run_worker(grid, doomed), util::fault_crash);

    WorkerOptions relief;
    relief.port = port;
    relief.name = "relief";
    const WorkerReport relief_report = run_worker(grid, relief);
    coordinator.join();

    EXPECT_TRUE(report.complete);
    EXPECT_GE(report.leases_disconnected, 1u);
    EXPECT_EQ(report.leases_expired, 0u);
    EXPECT_EQ(report.leases_granted,
              report.trials_total + report.leases_disconnected);
    // Only the dying batch runs twice: the relief lands exactly it.
    EXPECT_EQ(relief_report.trials_completed, report.leases_disconnected);
    EXPECT_EQ(persist::slurp_file(manifest), reference);
    third_of_three = report.leases_disconnected == 3;
  }
  EXPECT_TRUE(third_of_three);
  std::remove(manifest.c_str());
}

// A version-1 worker is turned away at the handshake with an explicit
// error, then the connection closes.
TEST_F(Serve, VersionOneHelloGetsMismatchAndCleanClose) {
  const sweep::SweepGrid grid = four_trial_grid();
  const std::string manifest = temp_path("serve_v1.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);
  std::thread coordinator([&] { serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();
  {
    const Socket s = raw_connect(port);
    const Message reply = raw_rpc(
        s, "{\"type\":\"hello\",\"v\":1,\"fingerprint\":\"" +
               fingerprint_hex(persist::grid_fingerprint(grid)) +
               "\",\"worker\":\"v1\"}");
    EXPECT_EQ(reply.type(), "error");
    EXPECT_NE(reply.get_string("message").find("protocol version mismatch"),
              std::string::npos);
    EXPECT_NO_THROW(expect_eof(s));
  }
  WorkerOptions worker;
  worker.port = port;
  EXPECT_TRUE(run_worker(grid, worker).drained);
  coordinator.join();
  std::remove(manifest.c_str());
}

// A fresh connection's first grant is one trial. After it completes
// that trial, the next grant continues the cell — up to the cell's other
// three trials, sized by the measured hold — and closing the connection
// hands exactly that batch back.
TEST_F(Serve, FirstGrantOnAFreshConnectionCarriesOneTrial) {
  const sweep::SweepGrid grid = four_trial_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_first_ref.manifest");
  const std::string manifest = temp_path("serve_first.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);
  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::uint16_t port = port_promise.get_future().get();
  std::int64_t second_count = 0;
  {
    const Socket s = raw_connect(port);
    EXPECT_EQ(raw_rpc(s, msg_hello(persist::grid_fingerprint(grid), "raw"))
                  .type(),
              "welcome");
    const Message first = raw_rpc(s, msg_lease());
    ASSERT_EQ(first.type(), "grant");
    EXPECT_EQ(first.get_int("trial"), 0);
    EXPECT_EQ(first.get_int("count"), 1);

    // Complete trial 0 with the outcome a worker would send.
    Rng stream = sweep::derive_trial_rng(grid.master_seed, 0, 0);
    const sweep::TrialOutcome outcome =
        sweep::make_scenario(grid.scenario, grid.ns[0])
            ->run_trial(grid.protocols[0], grid.dynamics, stream, nullptr);
    const auto first_lease =
        static_cast<std::uint64_t>(first.get_int("lease_id"));
    EXPECT_EQ(raw_rpc(s, msg_complete(first_lease, 0, 0, outcome)).type(),
              "ack");

    const Message second = raw_rpc(s, msg_lease());
    ASSERT_EQ(second.type(), "grant");
    EXPECT_EQ(second.get_int("lease_id"),
              static_cast<std::int64_t>(first_lease) + 1);
    EXPECT_EQ(second.get_int("trial"), 1);
    second_count = second.get_int("count");
    EXPECT_GE(second_count, 1);
    EXPECT_LE(second_count, 3);
  }  // closed holding the second grant: reclaimed and re-granted

  WorkerOptions worker;
  worker.port = port;
  EXPECT_EQ(run_worker(grid, worker).trials_completed, 3u);
  coordinator.join();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.leases_disconnected,
            static_cast<std::size_t>(second_count));
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// Three workers on a four-trial grid: every worker's first grant is one
// trial and the last trial goes out alone (its even share is one), so no
// trial is leased twice.
TEST_F(Serve, ThreeWorkersDrainAFourTrialGridWithOneLeasePerTrial) {
  const sweep::SweepGrid grid = four_trial_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_four_ref.manifest");
  const std::string manifest = temp_path("serve_four.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  const CoordinatorOptions options =
      coordinator_options(manifest, port_promise);
  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  const std::vector<WorkerReport> workers =
      run_fleet(grid, port_promise.get_future().get(), 3);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.trials_total, 4u);
  EXPECT_EQ(report.leases_granted, report.trials_total);
  std::size_t completed = 0;
  for (const WorkerReport& w : workers) {
    EXPECT_TRUE(w.drained);
    completed += w.trials_completed;
  }
  EXPECT_EQ(completed, report.trials_total);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

// The connection's renewer keeps a held lease alive past its TTL: the
// first trial fails once and its retry waits out the whole TTL, yet no
// lease expires and nothing is granted twice.
TEST_F(Serve, RenewerKeepsAHeldLeaseAlivePastItsTtl) {
  const sweep::SweepGrid grid = four_trial_grid();
  const std::string reference =
      reference_manifest_bytes(grid, "serve_renew_ref.manifest");
  const std::string manifest = temp_path("serve_renew.manifest");
  std::remove(manifest.c_str());
  std::promise<std::uint16_t> port_promise;
  CoordinatorOptions options = coordinator_options(manifest, port_promise);
  options.lease_ttl_seconds = 0.3;
  util::configure_faults("sweep.trial:err:hit=1");

  CoordinatorReport report;
  std::thread coordinator([&] { report = serve_grid(grid, options); });
  WorkerOptions worker;
  worker.port = port_promise.get_future().get();
  worker.renew_fraction = 0.2;      // renew every 60 ms
  worker.retry_backoff_ms = 500.0;  // the retry waits out the TTL
  const WorkerReport worker_report = run_worker(grid, worker);
  coordinator.join();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.leases_expired, 0u);
  EXPECT_EQ(report.leases_granted, report.trials_total);
  EXPECT_EQ(worker_report.trial_retries, 1);
  EXPECT_EQ(worker_report.leases_lost, 0u);
  EXPECT_EQ(persist::slurp_file(manifest), reference);
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace cid::serve
