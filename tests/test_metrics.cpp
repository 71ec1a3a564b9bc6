// Tests for the observability layer (src/obs/). The load-bearing contract
// is ZERO PERTURBATION: metering a run consumes no RNG and changes no
// output — trial outcomes, final states, RNG stream positions, and every
// persisted byte are bitwise identical with metrics on and off, at every
// row-thread count, across all scenario families, through checkpoint and
// resume. Everything else (registry semantics, sinks, progress math) is
// plumbing around that invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/builders.hpp"
#include "game/state.hpp"
#include "persist/binio.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "protocols/imitation.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- Registry semantics -----------------------------------------------------

TEST(MetricsRegistry, CounterRegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.counter("x"));
  reg.add(a, 3);
  reg.add(a, 4);
  EXPECT_EQ(reg.value(a), 7);
  EXPECT_EQ(reg.value(b), 0);
}

TEST(MetricsRegistry, HistogramRejectsBadBounds) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("h", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(
      reg.histogram("h", {1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(MetricsRegistry, HistogramFirstRegistrationWins) {
  obs::MetricsRegistry reg;
  const auto a = reg.histogram("h", {1.0, 2.0});
  const auto b = reg.histogram("h", {5.0});  // ignored bounds
  EXPECT_EQ(a, b);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].bounds, (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram("h", {1.0, 2.0, 4.0});
  // Bucket rule: first bucket with value <= bound; past the last bound the
  // observation lands in the overflow bucket.
  reg.observe(h, 0.5);   // bucket 0
  reg.observe(h, 1.0);   // bucket 0 (inclusive upper bound)
  reg.observe(h, 1.5);   // bucket 1
  reg.observe(h, 4.0);   // bucket 2
  reg.observe(h, 4.01);  // overflow
  reg.observe(h, -3.0);  // bucket 0
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramValue& v = snap.histograms[0];
  ASSERT_EQ(v.buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(v.buckets[0], 3);
  EXPECT_EQ(v.buckets[1], 1);
  EXPECT_EQ(v.buckets[2], 1);
  EXPECT_EQ(v.buckets[3], 1);
  EXPECT_EQ(v.count, 6);
  EXPECT_DOUBLE_EQ(v.sum, 0.5 + 1.0 + 1.5 + 4.0 + 4.01 - 3.0);
  // NaN falls through every bound into overflow (and poisons the sum,
  // which is why callers feed histograms counts, not derived ratios).
  reg.observe(h, std::nan(""));
  snap = reg.snapshot();
  EXPECT_EQ(snap.histograms[0].buckets[3], 2);
  EXPECT_EQ(snap.histograms[0].count, 7);
}

TEST(MetricsRegistry, ResetKeepsRegistrations) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto h = reg.histogram("h", {1.0});
  reg.add(c, 5);
  reg.observe(h, 0.5);
  reg.reset_values();
  EXPECT_EQ(reg.value(c), 0);
  EXPECT_EQ(reg.counter("c"), c);
  EXPECT_EQ(reg.histogram("h", {9.0}), h);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms[0].count, 0);
  EXPECT_EQ(snap.histograms[0].buckets[0], 0);
}

TEST(MetricsRegistry, MergeEngineUsesCanonicalNames) {
  obs::EngineMetrics m;
  m.rounds = 7;
  m.rows_pruned = 3;
  obs::MetricsRegistry reg;
  reg.merge_engine("", m);
  reg.merge_engine("sweep.", m);
  const auto snap = reg.snapshot();
  auto value_of = [&](const std::string& name) -> std::int64_t {
    for (const obs::CounterValue& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return -1;
  };
  EXPECT_EQ(value_of("engine.rounds"), 7);
  EXPECT_EQ(value_of("engine.rows_pruned"), 3);
  EXPECT_EQ(value_of("sweep.engine.rounds"), 7);
}

TEST(EngineMetrics, MergeSumsEveryField) {
  obs::EngineMetrics a, b;
  a.rounds = 1;
  a.draw_ns = 10;
  b.rounds = 2;
  b.draw_ns = 5;
  b.rows_filled = 4;
  a.merge(b);
  EXPECT_EQ(a.rounds, 3);
  EXPECT_EQ(a.draw_ns, 15);
  EXPECT_EQ(a.rows_filled, 4);
  // The (name, value) view covers every field exactly once, in
  // declaration order — the single naming authority all sinks share.
  const auto pairs = obs::engine_counters(a);
  ASSERT_EQ(pairs.size(), 9u);
  EXPECT_EQ(pairs.front().first, "engine.rounds");
  EXPECT_EQ(pairs.front().second, 3);
  EXPECT_EQ(pairs.back().first, "engine.stop_check_ns");
}

// ---- Zero perturbation: the engine ------------------------------------------

struct EngineRun {
  RunResult result;
  State state;
  std::array<std::uint64_t, 4> rng_state;
};

EngineRun run_engine(EngineMode mode, int row_threads,
                     obs::EngineMetrics* metrics) {
  auto game = make_uniform_links_game(6, make_linear(1.0), 400);
  Rng rng(1234);
  State x = State::uniform_random(game, rng);
  ImitationProtocol protocol;
  RunOptions options;
  options.max_rounds = 60;
  options.mode = mode;
  options.row_threads = row_threads;
  options.metrics = metrics;
  auto stop = [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_imitation_stable(g, s, g.nu());
  };
  const RunResult result = run_dynamics(
      game, x, protocol, rng, EngineInvocation{options, stop, {}, {}});
  return {result, std::move(x), rng.state()};
}

TEST(MetricsZeroPerturbation, EngineOutputsIdenticalOnAndOff) {
  for (const EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    for (const int row_threads : {1, 2, 4}) {
      const EngineRun off = run_engine(mode, row_threads, nullptr);
      obs::EngineMetrics metrics;
      const EngineRun on = run_engine(mode, row_threads, &metrics);
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " row_threads=" + std::to_string(row_threads));
      EXPECT_EQ(on.result.rounds, off.result.rounds);
      EXPECT_EQ(on.result.converged, off.result.converged);
      EXPECT_EQ(on.result.total_movers, off.result.total_movers);
      EXPECT_EQ(on.result.latency_evals, off.result.latency_evals);
      EXPECT_EQ(on.state, off.state);
      // The strongest form of "zero RNG": the generator is at the exact
      // same stream position after a metered run.
      EXPECT_EQ(on.rng_state, off.rng_state);
      if (obs::kMetricsCompiled) {
        EXPECT_EQ(metrics.rounds, on.result.rounds);
        EXPECT_GT(metrics.rows_filled, 0);
        EXPECT_GT(metrics.stop_checks, 0);
      } else {
        EXPECT_EQ(metrics, obs::EngineMetrics{});
      }
    }
  }
}

TEST(MetricsCounters, UncappedRunCountsExactly) {
  auto game = make_uniform_links_game(4, make_linear(1.0), 100);
  Rng rng(7);
  State x = State::uniform_random(game, rng);
  ImitationProtocol protocol;
  obs::EngineMetrics metrics;
  RunOptions options;
  options.max_rounds = 25;
  options.metrics = &metrics;
  // No stop predicate: exactly max_rounds rounds, zero stop checks —
  // every counter is hand-computable.
  const RunResult result =
      run_dynamics(game, x, protocol, rng,
                   EngineInvocation{options, {}, {}, {}});
  EXPECT_EQ(result.rounds, 25);
  EXPECT_FALSE(result.converged);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(metrics.rounds, 25);
    EXPECT_EQ(metrics.stop_checks, 0);
    EXPECT_EQ(metrics.stop_check_ns, 0);
    EXPECT_GT(metrics.rows_filled + metrics.rows_pruned, 0);
    EXPECT_GT(metrics.row_fill_ns + metrics.draw_ns, 0);
  } else {
    EXPECT_EQ(metrics, obs::EngineMetrics{});
  }
}

// ---- Zero perturbation: scenario families and the sweep ---------------------

void expect_outcomes_identical(const sweep::TrialOutcome& a,
                               const sweep::TrialOutcome& b) {
  // operator== compares every field exactly — bitwise for the doubles.
  EXPECT_EQ(a, b);
}

TEST(MetricsZeroPerturbation, AllScenarioFamiliesIdenticalOnAndOff) {
  struct Case {
    const char* scenario;
    std::int64_t n;
  };
  // One representative per family: symmetric singleton, asymmetric
  // multicommodity, and the round-less sequential threshold family.
  for (const Case c : {Case{"singleton-uniform", 60},
                       Case{"multicommodity", 48},
                       Case{"threshold-lb", 9}}) {
    SCOPED_TRACE(c.scenario);
    sweep::ScenarioSpec spec;
    spec.name = c.scenario;
    const auto instance = sweep::make_scenario(spec, c.n);
    sweep::ProtocolSpec protocol;
    sweep::DynamicsConfig dynamics;
    dynamics.max_rounds = 300;

    Rng rng_off(5);
    const sweep::TrialOutcome off =
        instance->run_trial(protocol, dynamics, rng_off);

    dynamics.collect_metrics = true;
    sweep::TrialStats stats;
    Rng rng_on(5);
    const sweep::TrialOutcome on =
        instance->run_trial(protocol, dynamics, rng_on, &stats);

    expect_outcomes_identical(on, off);
    EXPECT_EQ(rng_on.state(), rng_off.state());
    // Per-trial counters: rounds/steps executed match the outcome, and
    // every family meters its latency evaluations (the threshold family
    // through its sequential sweeps — ISSUE 6 satellite fix).
    EXPECT_EQ(stats.ran_rounds, static_cast<std::int64_t>(on.rounds));
    if (obs::kMetricsCompiled) {
      EXPECT_GT(stats.latency_evals, 0);
    }
  }
}

TEST(MetricsZeroPerturbation, CheckpointedTrialAndSnapshotBytesIdentical) {
  sweep::ScenarioSpec spec;
  spec.name = "singleton-uniform";
  const auto instance = sweep::make_scenario(spec, 80);
  sweep::ProtocolSpec protocol;
  sweep::DynamicsConfig dynamics;
  dynamics.max_rounds = 120;

  const std::string path_off = temp_path("cid_metrics_ckpt_off.snap");
  const std::string path_on = temp_path("cid_metrics_ckpt_on.snap");

  Rng rng_off(11);
  const sweep::TrialOutcome off = instance->run_trial_checkpointed(
      protocol, dynamics, rng_off, {path_off, 0});

  dynamics.collect_metrics = true;
  Rng rng_on(11);
  const sweep::TrialOutcome on = instance->run_trial_checkpointed(
      protocol, dynamics, rng_on, {path_on, 0});

  expect_outcomes_identical(on, off);
  EXPECT_EQ(rng_on.state(), rng_off.state());
  // The persisted artifact itself is byte-identical: metering never
  // leaks into snapshots.
  const std::string bytes_off = persist::slurp_file(path_off);
  const std::string bytes_on = persist::slurp_file(path_on);
  EXPECT_EQ(bytes_on, bytes_off);

  // And a kill/resume path stays bit-exact with metrics on: resume from
  // the metered run's snapshot reproduces the plain run's outcome.
  const sweep::TrialOutcome resumed =
      instance->resume_trial(protocol, dynamics, path_on);
  expect_outcomes_identical(resumed, off);

  std::remove(path_off.c_str());
  std::remove(path_on.c_str());
}

TEST(MetricsSweep, CollectMetricsChangesNoOutcomeAndFillsStats) {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {100, 200};
  grid.trials = 4;
  grid.master_seed = 17;
  grid.dynamics.max_rounds = 500;

  sweep::SweepOptions options;
  options.threads = 2;
  const sweep::SweepResult off = sweep::run_sweep(grid, options);

  grid.dynamics.collect_metrics = true;
  const sweep::SweepResult on = sweep::run_sweep(grid, options);

  ASSERT_EQ(on.trials.size(), off.trials.size());
  for (std::size_t i = 0; i < on.trials.size(); ++i) {
    expect_outcomes_identical(on.trials[i].outcome, off.trials[i].outcome);
  }
  ASSERT_EQ(on.stats.size(), on.trials.size());

  // The merged result is exactly the sum of the per-trial stats.
  obs::EngineMetrics merged;
  std::int64_t ran_rounds = 0;
  for (const sweep::TrialStats& stats : on.stats) {
    merged.merge(stats.engine);
    ran_rounds += stats.ran_rounds;
  }
  EXPECT_EQ(on.engine, merged);
  EXPECT_EQ(on.ran_rounds, ran_rounds);
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(on.engine.rounds, on.ran_rounds);
    EXPECT_GT(on.engine.rows_filled, 0);
  } else {
    EXPECT_EQ(on.engine, obs::EngineMetrics{});
  }
}

// ---- Sinks ------------------------------------------------------------------

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsRegistry reg;
  reg.add_named("b.counter", 2);
  reg.add_named("a.counter", 1);
  const auto h = reg.histogram("lat\"ency", {1.0, 10.0});
  reg.observe(h, 0.5);
  reg.observe(h, 5.0);
  reg.observe(h, 50.0);
  return reg.snapshot();
}

TEST(MetricsSinks, JsonlSchemaRoundTrips) {
  const std::string path = temp_path("cid_metrics_sink.jsonl");
  {
    obs::JsonlSink sink(path);
    obs::JsonObject row = sink.record("trial");
    row.num("cell", std::int64_t{3}).str("protocol", "imi\"tation");
    sink.write_line(std::move(row));
    sink.write(sample_snapshot());
    sink.write(sample_snapshot());
    EXPECT_GT(sink.bytes_written(), 0u);
    sink.close();
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // Every record leads with the schema preamble.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("{\"metrics_version\":1,\"kind\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"kind\":\"trial\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"protocol\":\"imi\\\"tation\""),
            std::string::npos);
  // Snapshot records carry a monotonic seq, sorted counters, histograms.
  EXPECT_NE(lines[1].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"a.counter\":1,\"b.counter\":2"),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"bounds\":[1,10]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"buckets\":[1,1,1]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"count\":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsSinks, JsonlThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::JsonlSink("/nonexistent-dir/metrics.jsonl"),
               std::runtime_error);
}

TEST(MetricsSinks, PrometheusExposition) {
  const std::string text = obs::prometheus_text(sample_snapshot());
  EXPECT_NE(text.find("# TYPE cid_a_counter counter\ncid_a_counter 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cid_lat_ency histogram"), std::string::npos);
  // Buckets are CUMULATIVE in the exposition format, ending at +Inf ==
  // count.
  EXPECT_NE(text.find("cid_lat_ency_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("cid_lat_ency_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cid_lat_ency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cid_lat_ency_count 3"), std::string::npos);
}

TEST(MetricsSinks, JsonEscape) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// ---- Progress meter ---------------------------------------------------------

TEST(Progress, MeterAggregatesPerKeyAndFormats) {
  obs::ProgressMeter meter({"imitation n=100", "imitation n=200"}, {2, 3});
  meter.on_trial_done(0, 10);
  meter.on_trial_done(1, 30);
  meter.on_trial_done(1, 20);
  const obs::ProgressSnapshot snap = meter.snapshot();
  EXPECT_EQ(snap.trials_done, 3);
  EXPECT_EQ(snap.trials_total, 5);
  EXPECT_EQ(snap.rounds_done, 60);
  ASSERT_EQ(snap.keys.size(), 2u);
  EXPECT_EQ(snap.keys[0].done, 1);
  EXPECT_EQ(snap.keys[0].total, 2);
  EXPECT_EQ(snap.keys[1].done, 2);
  const std::string line = obs::format_progress(snap);
  EXPECT_NE(line.find("3/5 trials"), std::string::npos);
  EXPECT_NE(line.find("imitation n=100 1/2"), std::string::npos);
  if (obs::kMetricsCompiled) {
    EXPECT_GE(snap.elapsed_seconds, 0.0);
  }
}

// ---- Persist I/O counters ---------------------------------------------------

TEST(PersistIo, CountersAccumulateThroughOneCodePath) {
  const obs::PersistIoTotals before = obs::persist_io_totals();
  obs::record_persist_write(100, /*fsyncs=*/2);
  obs::record_persist_write(28, /*fsyncs=*/0);
  obs::record_persist_flush();
  const obs::PersistIoTotals after = obs::persist_io_totals();
  if (obs::kMetricsCompiled) {
    EXPECT_EQ(after.bytes_written - before.bytes_written, 128);
    EXPECT_EQ(after.writes - before.writes, 2);
    EXPECT_EQ(after.fsyncs - before.fsyncs, 2);
    EXPECT_EQ(after.fflushes - before.fflushes, 1);
  } else {
    EXPECT_EQ(after.bytes_written, 0);
    EXPECT_EQ(after.writes, 0);
  }
}

}  // namespace
}  // namespace cid
