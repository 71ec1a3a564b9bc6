// cid_sim — command-line driver for the dynamics in this library.
//
//   cid_sim --game FILE [--protocol imitation|exploration|combined]
//           [--lambda L] [--no-nu] [--no-damping] [--virtual V]
//           [--rounds N] [--seed S] [--engine aggregate|perplayer]
//           [--start uniform|even|all:K] [--stop stable|nash|deltaeps:D,E]
//           [--trace-every K] [--csv PATH]
//           [--checkpoint PATH [--checkpoint-every K] [--checkpoint-keep K]]
//           [--resume PATH] [--event-log PATH [--no-log-compress]
//           [--rotate-bytes N]] [--save-state PATH]
//           [--metrics PATH [--metrics-every K]]
//           [--inject-faults SPEC]
//
// Loads a game in the cid-game v1 text format (see src/game/io.hpp;
// cid_gen writes such files), runs the chosen protocol, prints a trace
// table and a final report, and optionally dumps the trace as CSV.
//
// Persistence (src/persist/): --checkpoint writes a binary snapshot of the
// full simulation tuple — game, state, round counter, protocol config, and
// exact RNG stream state — atomically to PATH at round 0, every
// --checkpoint-every rounds, and at the end. --resume PATH continues such
// a snapshot bit-exactly (no --game/protocol flags needed; --rounds stays
// the TOTAL round cap). --event-log appends one checksummed record of each
// round's migrations, so cid_replay can reconstruct any state without
// re-running the dynamics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "cid/cid.hpp"
#include "util/fault.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: cid_sim --game FILE [options]\n"
      "       cid_sim --resume SNAPSHOT [options]\n"
      "  --protocol P    imitation (default) | exploration | combined\n"
      "  --lambda L      migration scale, default 0.25\n"
      "  --no-nu         drop the nu gain cutoff (Theorem 9 regime)\n"
      "  --no-damping    drop the 1/d damping (overshoot ablation)\n"
      "  --virtual V     virtual agents per strategy (section 6)\n"
      "  --rounds N      TOTAL round cap, default 100000\n"
      "  --seed S        RNG seed, default 1\n"
      "  --engine E      aggregate (default) | perplayer\n"
      "  --row-threads K fan per-origin probability-row fills across K\n"
      "                  threads inside each round (default 1; output is\n"
      "                  bitwise identical for every K — worth it only for\n"
      "                  large games)\n"
      "  --start S       uniform (default) | even | all:K | state:PATH\n"
      "                  (state:PATH loads a cid-state v1 file, e.g. a\n"
      "                  previous run's --save-state output)\n"
      "  --stop C        stable (default) | nash | deltaeps:D,E\n"
      "  --trace-every K sample the trace every K rounds, default 10\n"
      "  --csv PATH      also write the trace as CSV\n"
      "  --checkpoint PATH    write binary snapshots to PATH (atomic)\n"
      "  --checkpoint-every K snapshot cadence in rounds (default: only\n"
      "                       round 0 and the final state)\n"
      "  --checkpoint-keep K  keep the newest K snapshots as PATH.r<round>\n"
      "                       instead of overwriting one file (snapshot GC)\n"
      "  --resume PATH   continue bit-exactly from a snapshot (game,\n"
      "                  protocol, engine, stop come from the snapshot;\n"
      "                  PATH may be a --checkpoint-keep prefix — the\n"
      "                  newest PATH.r<round> wins)\n"
      "  --event-log PATH     append per-round migration records\n"
      "                       (delta-encoded + block-compressed v2)\n"
      "  --no-log-compress    write the uncompressed v1 event log format\n"
      "  --rotate-bytes N     rotate the event log to PATH.<seq> segments\n"
      "                       once the active file exceeds N bytes\n"
      "  --save-state PATH    write the final state (cid-state v1 text)\n"
      "  --metrics PATH       meter the engine (phase timers, row/prune\n"
      "                       counters, persist io) and append JSONL\n"
      "                       snapshots to PATH; also prints the counter\n"
      "                       table. Zero RNG impact: the run's outputs\n"
      "                       are bitwise identical with or without it\n"
      "  --metrics-every K    also snapshot every K rounds (default 0 =\n"
      "                       final snapshot only; requires --metrics)\n"
      "  --telemetry PATH     record per-round science observables (phi,\n"
      "                       latencies, makespan, movers, support,\n"
      "                       imitation gap) and write them as JSONL (CSV\n"
      "                       when PATH ends in .csv). Zero RNG impact;\n"
      "                       cid_replay telemetry regenerates the byte-\n"
      "                       identical file from a snapshot + event log\n"
      "  --telemetry-every K  telemetry sampling cadence in rounds\n"
      "                       (default 1; requires --telemetry)\n"
      "  --trace PATH         capture Chrome trace-event JSON spans (engine\n"
      "                       phases sampled, persist writes) to PATH —\n"
      "                       open in chrome://tracing or Perfetto\n"
      "  --trace-sample K     engine-phase span sampling interval in\n"
      "                       rounds (default 64; requires --trace)\n"
      "  --inject-faults SPEC arm the deterministic fault-injection layer\n"
      "                       (tests/CI): \"seed=S;SITE:KIND[:hit=N]\n"
      "                       [:every=N][:p=P][:count=K]\", kinds\n"
      "                       err|short|enospc|crash at persist sites like\n"
      "                       eventlog.block, snapshot.write (accepted but\n"
      "                       inert when built -DCID_FAULTS=OFF)\n");
  std::exit(error == nullptr ? 0 : 2);
}

struct Options {
  std::string game_path;
  std::string protocol = "imitation";
  double lambda = 0.25;
  bool no_nu = false;
  bool no_damping = false;
  std::int64_t virtual_agents = 0;
  std::int64_t rounds = 100000;
  std::uint64_t seed = 1;
  EngineMode engine = EngineMode::kAggregate;
  int row_threads = 1;
  std::string start = "uniform";
  std::string stop = "stable";
  std::int64_t trace_every = 10;
  std::string csv_path;
  std::string checkpoint_path;
  std::int64_t checkpoint_every = 0;
  std::int64_t checkpoint_keep = 0;
  std::string resume_path;
  std::string event_log_path;
  bool log_compress = true;
  std::uint64_t rotate_bytes = 0;
  std::string save_state_path;
  std::string metrics_path;
  std::int64_t metrics_every = 0;
  std::string telemetry_path;
  std::int64_t telemetry_every = 0;  // 0 = unset (1 when --telemetry given)
  std::string trace_path;
  std::int64_t trace_sample = 0;     // 0 = unset (library default)
  std::string fault_spec;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for flag");
    return argv[++i];
  };
  // Parses the flag's value strictly (util/parse_number.hpp) into `value`.
  auto read_number = [&](int& i, auto& value) {
    const char* const flag = argv[i];
    value =
        parse_number<std::remove_cvref_t<decltype(value)>>(flag, need_value(i));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(nullptr);
    else if (flag == "--game") opt.game_path = need_value(i);
    else if (flag == "--protocol") opt.protocol = need_value(i);
    else if (flag == "--lambda") read_number(i, opt.lambda);
    else if (flag == "--no-nu") opt.no_nu = true;
    else if (flag == "--no-damping") opt.no_damping = true;
    else if (flag == "--virtual") read_number(i, opt.virtual_agents);
    else if (flag == "--rounds") read_number(i, opt.rounds);
    else if (flag == "--seed") {
      read_number(i, opt.seed);
    } else if (flag == "--engine") {
      const std::string v = need_value(i);
      if (v == "aggregate") opt.engine = EngineMode::kAggregate;
      else if (v == "perplayer") opt.engine = EngineMode::kPerPlayer;
      else usage("unknown engine");
    } else if (flag == "--row-threads") {
      read_number(i, opt.row_threads);
    } else if (flag == "--start") opt.start = need_value(i);
    else if (flag == "--stop") opt.stop = need_value(i);
    else if (flag == "--trace-every") {
      read_number(i, opt.trace_every);
    } else if (flag == "--csv") opt.csv_path = need_value(i);
    else if (flag == "--checkpoint") opt.checkpoint_path = need_value(i);
    else if (flag == "--checkpoint-every") {
      read_number(i, opt.checkpoint_every);
    } else if (flag == "--checkpoint-keep") {
      read_number(i, opt.checkpoint_keep);
    } else if (flag == "--resume") opt.resume_path = need_value(i);
    else if (flag == "--event-log") opt.event_log_path = need_value(i);
    else if (flag == "--no-log-compress") opt.log_compress = false;
    else if (flag == "--rotate-bytes") {
      read_number(i, opt.rotate_bytes);
    } else if (flag == "--save-state") opt.save_state_path = need_value(i);
    else if (flag == "--metrics") opt.metrics_path = need_value(i);
    else if (flag == "--metrics-every") {
      read_number(i, opt.metrics_every);
    } else if (flag == "--telemetry") opt.telemetry_path = need_value(i);
    else if (flag == "--telemetry-every") {
      read_number(i, opt.telemetry_every);
    } else if (flag == "--trace") opt.trace_path = need_value(i);
    else if (flag == "--trace-sample") {
      read_number(i, opt.trace_sample);
    } else if (flag == "--inject-faults") {
      opt.fault_spec = need_value(i);
    } else usage(("unknown flag: " + flag).c_str());
  }
  if (opt.game_path.empty() == opt.resume_path.empty()) {
    usage("exactly one of --game and --resume is required");
  }
  if (opt.lambda <= 0.0 || opt.lambda > 1.0) usage("lambda out of (0,1]");
  if (opt.row_threads < 1) usage("--row-threads must be >= 1");
  if (opt.trace_every < 1) usage("--trace-every must be >= 1");
  if (opt.checkpoint_every < 0) usage("--checkpoint-every must be >= 0");
  if (opt.checkpoint_keep < 0) usage("--checkpoint-keep must be >= 0");
  if (opt.checkpoint_every > 0 && opt.checkpoint_path.empty()) {
    usage("--checkpoint-every requires --checkpoint PATH");
  }
  if (opt.checkpoint_keep > 0 && opt.checkpoint_path.empty()) {
    usage("--checkpoint-keep requires --checkpoint PATH");
  }
  if (opt.rotate_bytes > 0 && opt.event_log_path.empty()) {
    usage("--rotate-bytes requires --event-log PATH");
  }
  if (opt.metrics_every < 0) usage("--metrics-every must be >= 0");
  if (opt.metrics_every > 0 && opt.metrics_path.empty()) {
    usage("--metrics-every requires --metrics PATH");
  }
  if (opt.telemetry_every < 0) usage("--telemetry-every must be >= 1");
  if (opt.telemetry_every > 0 && opt.telemetry_path.empty()) {
    usage("--telemetry-every requires --telemetry PATH");
  }
  if (opt.telemetry_every == 0) opt.telemetry_every = 1;
  if (opt.trace_sample < 0) usage("--trace-sample must be >= 1");
  if (opt.trace_sample > 0 && opt.trace_path.empty()) {
    usage("--trace-sample requires --trace PATH");
  }
  // A --save-state path whose directory does not exist would fail only
  // after the whole run; reject it before round 1.
  if (!opt.save_state_path.empty()) {
    const std::filesystem::path dir =
        std::filesystem::path(opt.save_state_path).parent_path();
    std::error_code ec;
    if (!dir.empty() && !std::filesystem::is_directory(dir, ec)) {
      throw input_error("--save-state: directory '" + dir.string() +
                        "' does not exist");
    }
  }
  // Parse (and, when compiled in, arm) the fault schedule so a bad spec
  // exits 2 like any other flag-value error; a -DCID_FAULTS=OFF build
  // still accepts and validates the flag, it just never fires.
  if (!opt.fault_spec.empty()) {
    util::configure_faults(opt.fault_spec);
    if (!util::kFaultsCompiled) {
      std::fprintf(stderr,
                   "cid_sim: note: built with CID_FAULTS=OFF — "
                   "--inject-faults accepted but inert\n");
    }
  }
  return opt;
}

std::unique_ptr<Protocol> build_protocol(const Options& opt) {
  ImitationParams ip;
  ip.lambda = opt.lambda;
  ip.nu_cutoff = !opt.no_nu;
  ip.damping = !opt.no_damping;
  ip.virtual_agents = opt.virtual_agents;
  ExplorationParams ep;
  ep.lambda = opt.lambda;
  if (opt.protocol == "imitation") {
    return std::make_unique<ImitationProtocol>(ip);
  }
  if (opt.protocol == "exploration") {
    return std::make_unique<ExplorationProtocol>(ep);
  }
  if (opt.protocol == "combined") {
    return std::make_unique<CombinedProtocol>(ip, ep, 0.5);
  }
  usage("unknown protocol");
}

State build_start(const Options& opt, const CongestionGame& game, Rng& rng) {
  if (opt.start == "uniform") return State::uniform_random(game, rng);
  if (opt.start == "even") return State::spread_evenly(game);
  if (opt.start.rfind("all:", 0) == 0) {
    const auto k =
        parse_number<StrategyId>("--start all:K", opt.start.substr(4));
    if (k < 0 || k >= game.num_strategies()) usage("all:K out of range");
    return State::all_on(game, k);
  }
  if (opt.start.rfind("state:", 0) == 0) {
    // Feed a finished run's --save-state output back in as the start.
    return load_state(game, opt.start.substr(6));
  }
  usage("unknown start");
}

persist::SimConfig sim_config(const Options& opt) {
  persist::SimConfig config;
  config.protocol = opt.protocol;
  config.lambda = opt.lambda;
  config.p_explore = 0.5;
  config.nu_cutoff = !opt.no_nu;
  config.damping = !opt.no_damping;
  config.virtual_agents = opt.virtual_agents;
  config.engine = static_cast<std::uint8_t>(opt.engine);
  config.stop = opt.stop;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    // Bad flag *values* (e.g. a malformed --inject-faults spec) land
    // here; bad flag shapes exit through usage() directly.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    // Assemble the simulation tuple, fresh or from a snapshot.
    std::unique_ptr<CongestionGame> game;
    std::optional<State> x;
    Rng rng(opt.seed);
    std::unique_ptr<Protocol> protocol;
    persist::SimConfig config;
    std::int64_t start_round = 0;
    EngineMode engine = opt.engine;

    if (!opt.resume_path.empty()) {
      // A --checkpoint-keep prefix resolves to its newest PATH.r<round>.
      const std::string resume_from =
          persist::find_latest_checkpoint(opt.resume_path);
      persist::ResumedRun resumed = persist::resume_run(resume_from);
      game = std::move(resumed.game);
      x.emplace(std::move(resumed.state));
      rng = resumed.rng;
      protocol = std::move(resumed.protocol);
      config = resumed.config;
      start_round = resumed.round;
      engine = resumed.mode;
      std::printf("resumed %s at round %lld: %s\n", resume_from.c_str(),
                  static_cast<long long>(start_round),
                  game->describe().c_str());
    } else {
      game = std::make_unique<CongestionGame>(load_game(opt.game_path));
      std::printf("loaded %s\n", game->describe().c_str());
      x.emplace(build_start(opt, *game, rng));
      protocol = build_protocol(opt);
      config = sim_config(opt);
    }
    if (opt.rounds <= start_round && opt.rounds != 0) {
      usage("--rounds (total cap) must exceed the snapshot's round");
    }
    std::printf("protocol: %s, engine: %s, rounds cap: %lld\n\n",
                protocol->name().c_str(),
                engine == EngineMode::kAggregate ? "aggregate" : "perplayer",
                static_cast<long long>(opt.rounds));

    // Span tracing is armed before any observer or persist writer runs so
    // the timeline covers the whole run (pure observation: zero RNG, no
    // output byte changes — the PR 6 contract).
    if (!opt.trace_path.empty()) {
      if (opt.trace_sample > 0) {
        obs::set_trace_engine_sample_interval(opt.trace_sample);
      }
      obs::start_tracing();
    }

    // Observers: trace + optional event log + optional checkpoint cadence.
    TraceRecorder trace(*game, *x, opt.trace_every);
    RoundObserver observer = trace.observer();

    // Convergence telemetry rides the same observer chain; the recorder
    // buffers records and the file is written after the run (finish()
    // needs the converged verdict to decide on the final record).
    std::optional<obs::TelemetryRecorder> telemetry;
    if (!opt.telemetry_path.empty()) {
      telemetry.emplace(opt.telemetry_every);
      observer = persist::chain_observers(std::move(observer),
                                          telemetry->observer());
    }

    std::optional<persist::EventLogWriter> event_log;
    persist::EventLogOptions log_options;
    log_options.compress = opt.log_compress;
    log_options.rotate_bytes = opt.rotate_bytes;
    if (!opt.event_log_path.empty()) {
      if (!opt.resume_path.empty() &&
          std::filesystem::exists(opt.event_log_path)) {
        event_log.emplace(persist::EventLogWriter::open_for_append(
            opt.event_log_path, start_round, log_options));
      } else {
        event_log.emplace(
            persist::EventLogWriter::create(opt.event_log_path, log_options));
      }
      observer = persist::chain_observers(std::move(observer),
                                          event_log->observer());
    }

    std::optional<persist::Checkpointer> checkpointer;
    if (!opt.checkpoint_path.empty()) {
      checkpointer.emplace(
          *game, rng,
          persist::CheckpointConfig{opt.checkpoint_path, opt.checkpoint_every,
                                    opt.checkpoint_keep},
          config);
      // Round-0 (or resume-round) snapshot: captured before run_dynamics
      // consumes any draws, so snapshot + event log replays the whole run.
      checkpointer->write_now(*x, start_round);
      observer = persist::chain_observers(std::move(observer),
                                          checkpointer->observer());
    }

    // Engine metering (src/obs/): the counters accumulate into a local
    // struct the run options point at; snapshots are rebuilt from it on
    // demand. Pure observation — zero RNG, outputs bitwise identical.
    obs::EngineMetrics engine_metrics;
    obs::MetricsRegistry metrics_registry;
    std::unique_ptr<obs::JsonlSink> metrics_sink;
    const obs::PersistIoTotals io_before = obs::persist_io_totals();
    auto write_metrics_snapshot = [&]() {
      metrics_registry.reset_values();
      metrics_registry.merge_engine("", engine_metrics);
      const obs::PersistIoTotals io = obs::persist_io_totals();
      metrics_registry.add_named("persist.bytes_written",
                                 io.bytes_written - io_before.bytes_written);
      metrics_registry.add_named("persist.writes", io.writes - io_before.writes);
      metrics_registry.add_named("persist.fsyncs", io.fsyncs - io_before.fsyncs);
      metrics_registry.add_named("persist.fflushes",
                                 io.fflushes - io_before.fflushes);
      metrics_sink->write(metrics_registry.snapshot());
    };
    if (!opt.metrics_path.empty()) {
      metrics_sink = std::make_unique<obs::JsonlSink>(opt.metrics_path);
      if (opt.metrics_every > 0) {
        observer = persist::chain_observers(
            std::move(observer),
            [&](const CongestionGame&, const State&,
                std::span<const Migration>, std::int64_t round, bool final) {
              // The final snapshot is written after the run instead, once
              // the event log has flushed its tail.
              if (!final && round % opt.metrics_every == 0) {
                write_metrics_snapshot();
              }
            });
      }
    }

    EngineInvocation call;
    call.options.max_rounds = opt.rounds;
    call.options.mode = engine;
    call.options.start_round = start_round;
    call.options.row_threads = opt.row_threads;
    if (metrics_sink != nullptr) call.options.metrics = &engine_metrics;
    call.cached_stop = persist::cached_stop_from_spec(config.stop);
    call.observer = std::move(observer);
    const WallTimer run_timer;
    const RunResult result = run_dynamics(*game, *x, *protocol, rng, call);
    const double run_seconds = run_timer.seconds();
    if (event_log.has_value()) event_log->close();

    trace.to_table().print("trace (every " +
                           std::to_string(opt.trace_every) + " rounds)");
    std::printf(
        "\nstopped after %lld rounds (converged: %s, migrations this "
        "invocation %lld)\n",
        static_cast<long long>(result.rounds),
        result.converged ? "yes" : "no",
        static_cast<long long>(result.total_movers));
    // Kernel throughput for THIS invocation (a resumed run only executed
    // rounds [start_round, result.rounds)).
    const std::int64_t ran_rounds = result.rounds - start_round;
    if (ran_rounds > 0 && run_seconds > 0.0) {
      std::printf(
          "throughput: %.0f rounds/s; %lld latency evals (%.2f per round)\n",
          static_cast<double>(ran_rounds) / run_seconds,
          static_cast<long long>(result.latency_evals),
          static_cast<double>(result.latency_evals) /
              static_cast<double>(ran_rounds));
    }
    const auto report = check_delta_eps_nu(*game, *x, 0.1, 0.1, game->nu());
    std::printf(
        "final: L_av=%.4f  L+_av=%.4f  makespan=%.4f  nash_gap=%.4f\n"
        "imitation-stable=%s  nash=%s  (0.1,0.1,nu)-eq=%s\n",
        report.average_latency, report.plus_average_latency,
        makespan(*game, *x), nash_gap(*game, *x),
        is_imitation_stable(*game, *x, game->nu()) ? "yes" : "no",
        is_nash(*game, *x) ? "yes" : "no",
        report.at_equilibrium ? "yes" : "no");
    if (!opt.csv_path.empty()) {
      trace.to_table().write_csv(opt.csv_path);
      std::printf("trace written to %s\n", opt.csv_path.c_str());
    }
    if (!opt.save_state_path.empty()) {
      save_state(*x, opt.save_state_path);
      std::printf("final state written to %s\n",
                  opt.save_state_path.c_str());
    }
    if (!opt.checkpoint_path.empty()) {
      if (opt.checkpoint_keep > 0) {
        std::printf("checkpoints written to %s.r<round> (newest: round "
                    "%lld, keeping last %lld)\n",
                    opt.checkpoint_path.c_str(),
                    static_cast<long long>(result.rounds),
                    static_cast<long long>(opt.checkpoint_keep));
      } else {
        std::printf("checkpoint written to %s (round %lld)\n",
                    opt.checkpoint_path.c_str(),
                    static_cast<long long>(result.rounds));
      }
    }
    if (event_log.has_value()) {
      // Compression observability: on-disk bytes vs the fixed-width v1
      // encoding of the same rounds (writer-maintained counters — no
      // re-read of a possibly multi-GB chain at shutdown).
      const std::uint64_t disk = event_log->disk_bytes();
      const std::uint64_t v1 = event_log->v1_equivalent_bytes();
      std::printf(
          "event log %s: %llu bytes on disk, %llu uncompressed-equivalent "
          "(%.1fx)\n",
          opt.event_log_path.c_str(), static_cast<unsigned long long>(disk),
          static_cast<unsigned long long>(v1),
          disk == 0 ? 0.0
                    : static_cast<double>(v1) / static_cast<double>(disk));
    }
    if (telemetry.has_value()) {
      telemetry->finish(result.converged);
      const std::uint64_t bytes =
          obs::write_telemetry_file(opt.telemetry_path, telemetry->records());
      std::printf("telemetry written to %s (%zu records, %llu bytes)\n",
                  opt.telemetry_path.c_str(), telemetry->records().size(),
                  static_cast<unsigned long long>(bytes));
    }
    if (metrics_sink != nullptr) {
      write_metrics_snapshot();
      obs::TableSink("engine metrics").write(metrics_registry.snapshot());
      metrics_sink->close();
      std::printf("metrics written to %s (%llu bytes)\n",
                  metrics_sink->path().c_str(),
                  static_cast<unsigned long long>(
                      metrics_sink->bytes_written()));
    }
    if (!opt.trace_path.empty()) {
      const std::size_t events = obs::stop_tracing_to(opt.trace_path);
      std::printf("trace written to %s (%zu events)\n",
                  opt.trace_path.c_str(), events);
    }
  } catch (const input_error& e) {
    // An unreadable or malformed --game or --start state: file, or an
    // unwritable --save-state path: bad input, like a bad flag value.
    std::fprintf(stderr, "cid_sim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
