// cid_perftrace — the in-process, traced counterpart of each perfbench
// workload (perfbench/run.py --trace 1).
//
//   cid_perftrace sweep GRID --threads K --dir D --report R
//   cid_perftrace fleet GRID --dir D --report R
//   cid_perftrace sim --players N --game-seed G --seed S --rounds R
//                     --every E --dir D --report R
//
// GRID is the cid_sweep grid flags (--scenario, --param, --grid,
// --protocols, --trials, --seed). Each mode does what the workload's tools
// do, through the same public entry points, and writes the same artifacts
// into D so perfbench/run.py can byte-compare them with the tools' outputs:
//
//   sweep  sweep::run_sweep with a manifest, then write_sweep_outputs
//          (cid_sweep --manifest --out).
//   fleet  serve::serve_grid on a coordinator thread and serve::run_worker
//          on the main thread (cid_serve plus one cid_sweep --connect).
//   sim    cid_gen's layered build + save_game, load_game, run_dynamics
//          with an EventLogWriter and a Checkpointer, then load_snapshot +
//          replay_rounds against the final snapshot (cid_sim, cid_replay).
//
// The spans inside run_sweep and run_worker come from link-time wrapping
// (ld --wrap, listed in perfbench/CMakeLists.txt): a call the library makes
// from one object file to a public function defined in another lands in a
// __wrap_ function below, which times or counts it and forwards to the
// __real_ one. Wrapped:
//
//   game     sweep::make_scenario
//   sweep    sweep::derive_trial_rng (the worker's calls), parallel_for,
//            Rng::split (counted, not timed)
//   engine   run_dynamics (the EngineInvocation entry point)
//   persist  ManifestWriter::create, append and close
//   serve    send_frame, FrameReader::next, msg_lease, msg_complete
//
// A call inside the object file that defines the function is not wrapped:
// run_sweep's own derive_trial_rng calls are not. run_sweep derives every
// trial stream (and fills the trial keys) between its last make_scenario
// and its ManifestWriter::create, so that interval is sweep.derive_s.
//
// The main thread's timeline is tiled: every interval is charged to the
// layer on top of a span stack, so the layers' self times add up to the
// covered wall exactly. Time between spans goes to the layer of the entry
// point the mode called (sweep for run_sweep, serve for run_worker). The
// sweep pool is one span of the sweep layer; afterwards the engine and
// persist time its threads spent (summed over threads, divided by the
// thread count) is moved out of it. Engine phase times and work counters
// are read from obs::EngineMetrics (collect_metrics on; outputs are bitwise
// identical either way).
//
// The report is one JSON object: {"ok", "covered_s", "self_s": {layer: s},
// "metrics": {name: value}, "problems"}. "ok" is false when an in-process
// check fails.
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cid/cid.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "serve/worker.hpp"

using namespace cid;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "cid_perftrace: %s\n", message.c_str());
  std::exit(2);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

enum Layer { kGame, kSweep, kEngine, kPersist, kServe, kLayers };
constexpr std::array<const char*, kLayers> kLayerNames = {
    "game", "sweep", "engine", "persist", "serve"};

/// Self time per layer on the traced thread's wall clock. The interval
/// since the previous enter/leave is charged to the layer on top of the
/// stack, so the self times always add up to covered().
class Ledger {
 public:
  explicit Ledger(Layer base) : begin_(now_ns()), last_(begin_) {
    stack_.push_back(base);
  }

  void enter(Layer layer, std::int64_t t) {
    charge(t);
    stack_.push_back(layer);
  }

  void leave(std::int64_t t) {
    charge(t);
    if (stack_.size() > 1) stack_.pop_back();
  }

  /// Closes the timeline at `t` (charged to the layer on top).
  void finish(std::int64_t t) { charge(t); }

  /// Re-charges `ns` already counted under `from` to `to`.
  void move(Layer from, Layer to, std::int64_t ns) {
    self_[from] -= ns;
    self_[to] += ns;
  }

  Layer top() const { return stack_.back(); }
  std::int64_t covered() const { return last_ - begin_; }
  std::int64_t self(Layer layer) const { return self_[layer]; }

 private:
  void charge(std::int64_t t) {
    self_[stack_.back()] += t - last_;
    last_ = t;
  }

  std::int64_t begin_;
  std::int64_t last_;
  std::vector<Layer> stack_;
  std::array<std::int64_t, kLayers> self_{};
};

// ---- trace state -----------------------------------------------------------

Ledger* g_ledger = nullptr;
/// Set on the thread whose timeline the ledger tiles.
thread_local bool t_traced = false;
/// Set on the in-process coordinator's thread (its frames are not counted).
thread_local bool t_coordinator = false;
/// Observer time nested in the current run_dynamics call (sim mode).
thread_local std::int64_t t_observed_ns = 0;
/// True while the traced thread is inside the sweep pool: calls there are
/// summed per layer instead of tiled.
bool g_in_pool = false;

bool tiled() { return t_traced && !g_in_pool; }

/// A timed call: tiled onto the ledger when made on the traced thread
/// outside the pool.
class Span {
 public:
  explicit Span(Layer layer) : tiled_(tiled()), start_(now_ns()) {
    if (tiled_) g_ledger->enter(layer, start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Ends the span (once); returns its inclusive duration.
  std::int64_t end() {
    if (end_ == 0) {
      end_ = now_ns();
      if (tiled_) g_ledger->leave(end_);
    }
    return end_ - start_;
  }

 private:
  bool tiled_;
  std::int64_t start_;
  std::int64_t end_ = 0;
};

/// Calls and their summed duration, from any thread.
struct Tally {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};

  void add(std::int64_t duration) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(duration, std::memory_order_relaxed);
  }
};

Tally g_build;        // make_scenario, and the sim's game builds
Tally g_derive;       // derive_trial_rng calls that were wrapped
Tally g_append;       // ManifestWriter::append
Tally g_close;        // ManifestWriter::close
Tally g_engine_calls; // run_dynamics, excluding nested observer time
std::int64_t g_splits = 0;        // Rng::split on the tiled timeline
std::int64_t g_last_build_end = 0;
std::int64_t g_run_sweep_derive_ns = -1;
std::atomic<std::int64_t> g_frames{0};  // worker-side frames sent + read

struct EngineTotals {
  std::mutex mutex;
  obs::EngineMetrics metrics;
  std::int64_t latency_evals = 0;
  std::vector<double> call_us;
} g_engine;

struct PoolTotals {
  std::int64_t wall_ns = 0;
  std::int64_t width = 1;
  std::int64_t append_ns = 0;
} g_pool;

/// Lease accounting on the worker's thread, from the frames it reads.
struct LeaseClock {
  std::int64_t asked = 0;          // msg_lease built, response pending
  bool completing = false;         // msg_complete built, ack pending
  std::int64_t granted = 0;        // last lease response arrived
  std::int64_t layers_at_grant = 0;
  std::vector<double> rtt_us;
  std::int64_t wait_ns = 0;
  std::int64_t overhead_ns = 0;
} g_lease;

/// Time the ledger charged to every layer but serve so far.
std::int64_t non_serve_ns() {
  std::int64_t total = 0;
  for (int l = 0; l < kLayers; ++l) {
    if (l != kServe) total += g_ledger->self(static_cast<Layer>(l));
  }
  return total;
}

obs::EngineMetrics minus(const obs::EngineMetrics& a,
                         const obs::EngineMetrics& b) {
  obs::EngineMetrics d;
  d.rounds = a.rounds - b.rounds;
  d.stop_checks = a.stop_checks - b.stop_checks;
  d.rows_filled = a.rows_filled - b.rows_filled;
  d.rows_pruned = a.rows_pruned - b.rows_pruned;
  d.ctx_refresh_ns = a.ctx_refresh_ns - b.ctx_refresh_ns;
  d.row_fill_ns = a.row_fill_ns - b.row_fill_ns;
  d.draw_ns = a.draw_ns - b.draw_ns;
  d.apply_ns = a.apply_ns - b.apply_ns;
  d.stop_check_ns = a.stop_check_ns - b.stop_check_ns;
  return d;
}

}  // namespace

// ---- link-time wrappers ----------------------------------------------------
//
// Each pair names the library symbol through an asm label: __real_X is the
// library's definition, __wrap_X is what the library's callers now reach.
// A member function is declared with its object as the first parameter.

#define CID_WRAP(ret, name, mangled, ...)                    \
  ret real_##name(__VA_ARGS__) asm("__real_" mangled);       \
  ret wrap_##name(__VA_ARGS__) asm("__wrap_" mangled)

CID_WRAP(Rng, split, "_ZN3cid3Rng5splitEm", Rng* self, std::uint64_t key);
CID_WRAP(std::unique_ptr<sweep::ScenarioInstance>, make_scenario,
         "_ZN3cid5sweep13make_scenarioERKNS0_12ScenarioSpecEl",
         const sweep::ScenarioSpec& spec, std::int64_t n);
CID_WRAP(Rng, derive_trial_rng, "_ZN3cid5sweep16derive_trial_rngEmjj",
         std::uint64_t master_seed, std::uint32_t cell, std::uint32_t trial);
CID_WRAP(void, parallel_for, "_ZN3cid5sweep12parallel_forEliRKSt8functionIFvlEE",
         std::int64_t count, int threads,
         const std::function<void(std::int64_t)>& fn);
CID_WRAP(RunResult, run_dynamics,
         "_ZN3cid12run_dynamicsERKNS_14CongestionGameERNS_5StateERKNS_"
         "8ProtocolERNS_3RngERKNS_16EngineInvocationE",
         const CongestionGame& game, State& x, const Protocol& protocol,
         Rng& rng, const EngineInvocation& call);
CID_WRAP(persist::ManifestWriter, manifest_create,
         "_ZN3cid7persist14ManifestWriter6createERKNSt7__cxx1112basic_"
         "stringIcSt11char_traitsIcESaIcEEERKNS_5sweep9SweepGridE",
         const std::string& path, const sweep::SweepGrid& grid);
CID_WRAP(void, manifest_append,
         "_ZN3cid7persist14ManifestWriter6appendEjjRKNS_5sweep12TrialOutcomeE",
         persist::ManifestWriter* self, std::uint32_t cell,
         std::uint32_t trial, const sweep::TrialOutcome& outcome);
CID_WRAP(void, manifest_close, "_ZN3cid7persist14ManifestWriter5closeEv",
         persist::ManifestWriter* self);
CID_WRAP(void, send_frame,
         "_ZN3cid5serve10send_frameERKNS0_6SocketESt17basic_string_"
         "viewIcSt11char_traitsIcEE",
         const serve::Socket& socket, std::string_view frame);
CID_WRAP(std::optional<std::string>, frame_next,
         "_ZN3cid5serve11FrameReader4nextB5cxx11Ev",
         serve::FrameReader* self);
CID_WRAP(std::string, msg_lease, "_ZN3cid5serve9msg_leaseB5cxx11Ev");
CID_WRAP(std::string, msg_complete,
         "_ZN3cid5serve12msg_completeB5cxx11EmjjRKNS_5sweep12TrialOutcomeE",
         std::uint64_t lease_id, std::uint32_t cell, std::uint32_t trial,
         const sweep::TrialOutcome& outcome);

Rng wrap_split(Rng* self, std::uint64_t key) {
  if (tiled()) ++g_splits;
  return real_split(self, key);
}

std::unique_ptr<sweep::ScenarioInstance> wrap_make_scenario(
    const sweep::ScenarioSpec& spec, std::int64_t n) {
  Span span(kGame);
  auto instance = real_make_scenario(spec, n);
  g_build.add(span.end());
  if (tiled()) g_last_build_end = now_ns();
  return instance;
}

Rng wrap_derive_trial_rng(std::uint64_t master_seed, std::uint32_t cell,
                          std::uint32_t trial) {
  Span span(kSweep);
  const Rng rng = real_derive_trial_rng(master_seed, cell, trial);
  g_derive.add(span.end());
  return rng;
}

void wrap_parallel_for(std::int64_t count, int threads,
                       const std::function<void(std::int64_t)>& fn) {
  // Only run_sweep's trial pool is traced; the engine's row-fill calls
  // (engine on top of the stack) and nested calls pass straight through.
  if (!tiled() || g_ledger->top() != kSweep) {
    real_parallel_for(count, threads, fn);
    return;
  }
  Span pool(kSweep);
  const std::int64_t engine_before = g_engine_calls.ns.load();
  const std::int64_t append_before = g_append.ns.load();
  struct InPool {
    InPool() { g_in_pool = true; }
    ~InPool() { g_in_pool = false; }
  };
  {
    const InPool in_pool;
    real_parallel_for(count, threads, fn);
  }
  const std::int64_t wall = pool.end();
  const std::int64_t width = std::max<std::int64_t>(
      1, std::min<std::int64_t>(sweep::resolve_threads(threads), count));
  const std::int64_t engine_ns = g_engine_calls.ns.load() - engine_before;
  const std::int64_t append_ns = g_append.ns.load() - append_before;
  g_ledger->move(kSweep, kEngine, engine_ns / width);
  g_ledger->move(kSweep, kPersist, append_ns / width);
  g_pool.wall_ns += wall;
  g_pool.width = width;
  g_pool.append_ns += append_ns;
}

RunResult wrap_run_dynamics(const CongestionGame& game, State& x,
                            const Protocol& protocol, Rng& rng,
                            const EngineInvocation& call) {
  obs::EngineMetrics* const metrics = call.options.metrics;
  const obs::EngineMetrics before =
      metrics != nullptr ? *metrics : obs::EngineMetrics{};
  const std::int64_t observed_before = t_observed_ns;
  Span span(kEngine);
  const RunResult result = real_run_dynamics(game, x, protocol, rng, call);
  const std::int64_t ns = span.end() - (t_observed_ns - observed_before);
  g_engine_calls.add(ns);
  {
    const std::lock_guard<std::mutex> lock(g_engine.mutex);
    if (metrics != nullptr) g_engine.metrics.merge(minus(*metrics, before));
    g_engine.latency_evals += result.latency_evals;
    g_engine.call_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  return result;
}

persist::ManifestWriter wrap_manifest_create(const std::string& path,
                                             const sweep::SweepGrid& grid) {
  if (tiled() && g_run_sweep_derive_ns < 0 && g_last_build_end > 0) {
    g_run_sweep_derive_ns = now_ns() - g_last_build_end;
  }
  const Span span(kPersist);
  return real_manifest_create(path, grid);
}

void wrap_manifest_append(persist::ManifestWriter* self, std::uint32_t cell,
                          std::uint32_t trial,
                          const sweep::TrialOutcome& outcome) {
  Span span(kPersist);
  real_manifest_append(self, cell, trial, outcome);
  g_append.add(span.end());
}

void wrap_manifest_close(persist::ManifestWriter* self) {
  Span span(kPersist);
  real_manifest_close(self);
  g_close.add(span.end());
}

void wrap_send_frame(const serve::Socket& socket, std::string_view frame) {
  if (!t_coordinator) g_frames.fetch_add(1, std::memory_order_relaxed);
  real_send_frame(socket, frame);
}

std::optional<std::string> wrap_frame_next(serve::FrameReader* self) {
  std::optional<std::string> frame = real_frame_next(self);
  if (!frame.has_value() || t_coordinator) return frame;
  g_frames.fetch_add(1, std::memory_order_relaxed);
  if (!tiled()) return frame;
  const std::int64_t t = now_ns();
  if (g_lease.asked != 0) {
    g_lease.rtt_us.push_back(static_cast<double>(t - g_lease.asked) * 1e-3);
    g_lease.wait_ns += t - g_lease.asked;
    g_lease.asked = 0;
    g_lease.granted = t;
    g_lease.layers_at_grant = non_serve_ns();
  } else if (g_lease.completing) {
    // Lease hold (grant to ack) minus the time other layers ran in it.
    g_lease.overhead_ns +=
        (t - g_lease.granted) - (non_serve_ns() - g_lease.layers_at_grant);
    g_lease.completing = false;
  }
  return frame;
}

std::string wrap_msg_lease() {
  if (tiled()) g_lease.asked = now_ns();
  return real_msg_lease();
}

std::string wrap_msg_complete(std::uint64_t lease_id, std::uint32_t cell,
                              std::uint32_t trial,
                              const sweep::TrialOutcome& outcome) {
  if (tiled()) g_lease.completing = true;
  return real_msg_complete(lease_id, cell, trial, outcome);
}

namespace {

struct Report {
  bool ok = true;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;

  void check(bool good, const std::string& what) {
    if (!good) {
      ok = false;
      problems.push_back(what);
    }
  }
};

/// The engine, game and split figures every mode reports.
void add_common_metrics(Report& report) {
  auto& m = report.metrics;
  m["game.build_s"] = seconds(g_build.ns.load());
  m["game.builds"] = static_cast<double>(g_build.calls.load());
  m["sweep.rng_splits"] = static_cast<double>(g_splits);
  m["engine.run_s"] = seconds(g_engine_calls.ns.load());
  const obs::EngineMetrics& e = g_engine.metrics;
  m["engine.rounds"] = static_cast<double>(e.rounds);
  m["engine.latency_evals"] = static_cast<double>(g_engine.latency_evals);
  m["engine.rows_filled"] = static_cast<double>(e.rows_filled);
  m["engine.rows_pruned"] = static_cast<double>(e.rows_pruned);
  m["engine.row_fill_s"] = seconds(e.row_fill_ns);
  m["engine.draw_s"] = seconds(e.draw_ns);
  m["engine.apply_s"] = seconds(e.apply_ns);
  m["engine.ctx_refresh_s"] = seconds(e.ctx_refresh_ns);
  m["engine.stop_check_s"] = seconds(e.stop_check_ns);
  m["engine.trial_p50_us"] = percentile(g_engine.call_us, 0.50);
  m["engine.trial_p99_us"] = percentile(g_engine.call_us, 0.99);
}

void write_report(const std::string& path, const Report& report,
                  const Ledger& ledger) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) fail("cannot write report " + path);
  std::fprintf(out, "{\"ok\": %s, \"covered_s\": %.9f, \"self_s\": {",
               report.ok ? "true" : "false", seconds(ledger.covered()));
  for (int l = 0; l < kLayers; ++l) {
    std::fprintf(out, "%s\"%s\": %.9f", l == 0 ? "" : ", ", kLayerNames[l],
                 seconds(ledger.self(static_cast<Layer>(l))));
  }
  std::fprintf(out, "}, \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(out, "}, \"problems\": [");
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    std::string text;
    for (const char c : report.problems[i]) {
      if (c == '"' || c == '\\') text += '\\';
      text += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", text.c_str());
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string mode;
  sweep::SweepGrid grid;
  int threads = 1;
  std::int64_t players = 0;
  std::uint64_t seed = 1;
  std::uint64_t game_seed = 1;
  std::int64_t rounds = 0;
  std::int64_t every = 0;
  std::string dir;
  std::string report;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: cid_perftrace sweep|fleet|sim FLAGS");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--scenario") args.grid.scenario.name = value;
    else if (flag == "--param") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) fail("expected --param K=V");
      args.grid.scenario.params[value.substr(0, eq)] =
          std::atof(value.c_str() + eq + 1);
    } else if (flag == "--grid") args.grid.ns = sweep::parse_grid_axis(value);
    else if (flag == "--protocols") {
      args.grid.protocols = sweep::parse_protocol_list(value);
    } else if (flag == "--trials") args.grid.trials = std::atoi(value.c_str());
    else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
      args.grid.master_seed = args.seed;
    } else if (flag == "--game-seed") {
      args.game_seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--threads") args.threads = std::atoi(value.c_str());
    else if (flag == "--players") args.players = std::atoll(value.c_str());
    else if (flag == "--rounds") args.rounds = std::atoll(value.c_str());
    else if (flag == "--every") args.every = std::atoll(value.c_str());
    else if (flag == "--dir") args.dir = value;
    else if (flag == "--report") args.report = value;
    else fail("unknown flag " + flag);
  }
  if (args.dir.empty() || args.report.empty()) {
    fail("--dir and --report are required");
  }
  // cid_sweep's defaults: imitation only, lambda 0.25 on every protocol.
  if (args.grid.protocols.empty()) {
    args.grid.protocols = sweep::parse_protocol_list("imitation");
  }
  for (auto& protocol : args.grid.protocols) protocol.lambda = 0.25;
  // Engine phase timers for the report; not part of any output byte or
  // grid fingerprint.
  args.grid.dynamics.collect_metrics = true;
  return args;
}

// ---- sweep -----------------------------------------------------------------

void trace_sweep(const Args& args, Report& report) {
  const std::int64_t fsyncs_before = obs::persist_io_totals().fsyncs;
  sweep::SweepOptions options;
  options.threads = args.threads;
  options.manifest_path = args.dir + "/trace.manifest";
  const sweep::SweepResult result = sweep::run_sweep(args.grid, options);

  Span output(kSweep);
  std::uint64_t output_bytes = 0;
  for (const sweep::WrittenFile& file :
       sweep::write_sweep_outputs(args.dir + "/trace", result)) {
    output_bytes += file.bytes;
  }
  const std::int64_t output_ns = output.end();

  report.check(result.complete && result.failures.empty() &&
                   result.trial_retries == 0 && !result.manifest_degraded,
               "run_sweep did not complete every trial cleanly");

  add_common_metrics(report);
  auto& m = report.metrics;
  m["sweep.derive_s"] = seconds(std::max<std::int64_t>(
      0, g_run_sweep_derive_ns));
  m["sweep.trial_run_s"] = seconds(result.trial_run_ns);
  m["sweep.queue_wait_s"] = seconds(result.queue_wait_ns);
  m["sweep.pool_busy_frac"] =
      static_cast<double>(result.trial_run_ns + g_pool.append_ns) /
      (static_cast<double>(std::max<std::int64_t>(1, g_pool.wall_ns)) *
       static_cast<double>(g_pool.width));
  m["sweep.output_write_s"] = seconds(output_ns);
  m["sweep.output_bytes"] = static_cast<double>(output_bytes);
  m["persist.manifest_append_s"] = seconds(g_append.ns.load());
  m["persist.manifest_appends"] = static_cast<double>(g_append.calls.load());
  m["persist.manifest_finalize_s"] = seconds(g_close.ns.load());
  m["persist.fsyncs"] =
      static_cast<double>(obs::persist_io_totals().fsyncs - fsyncs_before);
}

// ---- fleet -----------------------------------------------------------------

void trace_fleet(const Args& args, Report& report) {
  const sweep::SweepGrid& grid = args.grid;
  std::promise<std::uint16_t> listening;
  std::future<std::uint16_t> port_future = listening.get_future();
  serve::CoordinatorReport coordinator;
  double coordinator_cpu_s = 0.0;
  std::string coordinator_error;
  // A jthread joins on every exit path; max_seconds ends the coordinator
  // if the worker fails and never drains the grid.
  std::jthread coordinator_thread([&] {
    t_coordinator = true;
    serve::CoordinatorOptions options;
    options.manifest_path = args.dir + "/trace.live";
    options.final_manifest_path = args.dir + "/trace.manifest";
    options.max_seconds = 50.0;
    bool announced = false;
    options.on_listening = [&](std::uint16_t port, std::uint16_t) {
      announced = true;
      listening.set_value(port);
    };
    try {
      coordinator = serve::serve_grid(grid, options);
    } catch (const std::exception& e) {
      coordinator_error = e.what();
      if (!announced) listening.set_value(0);
    }
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    coordinator_cpu_s = static_cast<double>(cpu.tv_sec) +
                        static_cast<double>(cpu.tv_nsec) * 1e-9;
  });
  const std::uint16_t port = port_future.get();
  if (port == 0) {
    coordinator_thread.join();
    throw std::runtime_error("coordinator did not start: " +
                             coordinator_error);
  }

  serve::WorkerOptions options;
  options.port = port;
  options.name = "perftrace";
  const serve::WorkerReport worker = serve::run_worker(grid, options);
  coordinator_thread.join();

  const auto total = grid.ns.size() * grid.protocols.size() *
                     static_cast<std::size_t>(grid.trials);
  report.check(coordinator_error.empty(), "coordinator: " + coordinator_error);
  report.check(worker.drained && worker.trials_completed == total &&
                   worker.trials_requeued == 0 && worker.leases_lost == 0 &&
                   worker.trial_retries == 0,
               "worker lost, requeued or missed trials");
  report.check(coordinator.complete && coordinator.leases_granted == total,
               "coordinator did not drain with one grant per trial");

  add_common_metrics(report);
  auto& m = report.metrics;
  m["sweep.derive_s"] = seconds(g_derive.ns.load());
  m["persist.manifest_append_s"] = seconds(g_append.ns.load());
  m["persist.manifest_appends"] = static_cast<double>(g_append.calls.load());
  m["serve.frames_per_trial"] =
      static_cast<double>(g_frames.load()) /
      static_cast<double>(std::max<std::size_t>(1, worker.trials_completed));
  m["serve.lease_rtt_p50_us"] = percentile(g_lease.rtt_us, 0.50);
  m["serve.lease_rtt_p99_us"] = percentile(g_lease.rtt_us, 0.99);
  m["serve.worker_overhead_s"] = seconds(g_lease.overhead_ns);
  m["serve.worker_wait_s"] = seconds(g_lease.wait_ns);
  m["serve.coordinator_cpu_s"] = coordinator_cpu_s;
  m["serve.leases_granted"] = static_cast<double>(coordinator.leases_granted);
}

// ---- sim -------------------------------------------------------------------

void trace_sim(const Args& args, Report& report) {
  const std::int64_t fsyncs_before = obs::persist_io_totals().fsyncs;
  const std::string game_path = args.dir + "/trace.game";
  const std::string log_path = args.dir + "/trace_events.log";
  const std::string ck_path = args.dir + "/trace_ck";

  // cid_gen --family layered --width 4 --depth 3.
  {
    Span build(kGame);
    Rng gen_rng(args.game_seed);
    const StNetwork net = make_layered_network(4, 3);
    std::vector<LatencyPtr> fns;
    for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
      const double a = 0.5 + gen_rng.uniform();
      fns.push_back(gen_rng.bernoulli(0.5) ? make_linear(a)
                                           : make_monomial(0.1 * a, 2.0));
    }
    const CongestionGame generated =
        make_network_game(net, std::move(fns), args.players);
    g_build.add(build.end());
    Span save(kPersist);
    save_game(generated, game_path);
  }

  // cid_sim --protocol combined --stop nash --checkpoint ... --event-log.
  // The loaded game and its start state count as the second build.
  Span load(kGame);
  const CongestionGame game = load_game(game_path);
  Rng rng(args.seed);
  State x = State::uniform_random(game, rng);
  g_build.add(load.end());
  ImitationParams imitation;
  ExplorationParams exploration;
  const CombinedProtocol protocol(imitation, exploration, 0.5);
  persist::SimConfig config;
  config.protocol = "combined";
  config.engine = static_cast<std::uint8_t>(EngineMode::kAggregate);
  config.stop = "nash";

  Span open(kPersist);
  persist::EventLogWriter log =
      persist::EventLogWriter::create(log_path, persist::EventLogOptions{});
  const persist::Checkpointer checkpointer(
      game, rng, persist::CheckpointConfig{ck_path, args.every, 100}, config);
  open.end();
  Span first_snapshot(kPersist);
  checkpointer.write_now(x, 0);
  std::int64_t snapshot_write_ns = first_snapshot.end();

  std::int64_t eventlog_ns = 0;
  auto timed = [](RoundObserver inner, std::int64_t& sink) -> RoundObserver {
    return [inner = std::move(inner), &sink](
               const CongestionGame& g, const State& s,
               std::span<const Migration> moves, std::int64_t round,
               bool final) {
      Span span(kPersist);
      inner(g, s, moves, round, final);
      const std::int64_t ns = span.end();
      sink += ns;
      t_observed_ns += ns;
    };
  };
  obs::EngineMetrics engine;
  EngineInvocation call;
  call.options.max_rounds = args.rounds;
  call.options.mode = EngineMode::kAggregate;
  call.options.metrics = &engine;
  call.cached_stop = persist::cached_stop_from_spec(config.stop);
  call.observer = persist::chain_observers(
      timed(log.observer(), eventlog_ns),
      timed(checkpointer.observer(), snapshot_write_ns));
  const RunResult result = run_dynamics(game, x, protocol, rng, call);
  Span closing(kPersist);
  log.close();
  eventlog_ns += closing.end();
  report.check(result.rounds == args.rounds, "sim stopped early");

  // cid_replay replay --snapshot ck.r0 --log events --expect ck.r<final>.
  Span read_start(kPersist);
  const persist::Snapshot start = persist::load_snapshot(ck_path + ".r0");
  std::int64_t snapshot_read_ns = read_start.end();
  Span replay(kPersist);
  const persist::EventLog events = persist::read_event_log_series(log_path);
  State replayed = start.state();
  const std::int64_t applied = persist::replay_rounds(
      start.game, replayed, events.rounds, start.round,
      events.rounds.empty() ? start.round : events.rounds.back().round + 1);
  const std::int64_t replay_ns = replay.end();
  Span read_expect(kPersist);
  const persist::Snapshot expect =
      persist::load_snapshot(ck_path + ".r" + std::to_string(args.rounds));
  snapshot_read_ns += read_expect.end();
  report.check(expect.state() == replayed &&
                   expect.round == start.round + applied,
               "replay does not match the final snapshot");

  add_common_metrics(report);
  auto& m = report.metrics;
  m["persist.eventlog_append_s"] = seconds(eventlog_ns);
  m["persist.eventlog_bytes"] = static_cast<double>(log.disk_bytes());
  m["persist.snapshot_write_s"] = seconds(snapshot_write_ns);
  m["persist.snapshot_read_s"] = seconds(snapshot_read_ns);
  m["persist.replay_s"] = seconds(replay_ns);
  m["persist.fsyncs"] =
      static_cast<double>(obs::persist_io_totals().fsyncs - fsyncs_before);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  // Time between spans belongs to the entry point the mode calls.
  Ledger ledger(args.mode == "fleet" ? kServe
                : args.mode == "sim" ? kPersist
                                     : kSweep);
  g_ledger = &ledger;
  t_traced = true;
  try {
    if (args.mode == "sweep") trace_sweep(args, report);
    else if (args.mode == "fleet") trace_fleet(args, report);
    else if (args.mode == "sim") trace_sim(args, report);
    else fail("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    report.check(false, e.what());
  }
  ledger.finish(now_ns());
  write_report(args.report, report, ledger);
  return report.ok ? 0 : 1;
}
