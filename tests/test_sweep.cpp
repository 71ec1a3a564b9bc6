// Tests for the parallel scenario-sweep runtime. The load-bearing contract
// is thread-count invariance: a sweep's per-trial results must be bitwise
// identical whether it runs on 1 thread or 8, because all Rng streams are
// derived serially (Rng::split) before any worker starts. Everything else
// — registry, grid parsing, writers, the retrofitted analysis harness —
// rides on that.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "persist/manifest.hpp"
#include "sweep/output.hpp"
#include "sweep/pool.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweep/shard.hpp"
#include "util/rng.hpp"

namespace cid::sweep {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = parse_protocol_list("imitation,combined");
  grid.ns = {200, 500};
  grid.trials = 6;
  grid.master_seed = 99;
  grid.dynamics.max_rounds = 2000;
  return grid;
}

/// SweepOptions with only the thread count set (the designated-init
/// shorthand would warn about the resumable-sweep fields added later).
SweepOptions with_threads(int threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    const TrialRow& ta = a.trials[i];
    const TrialRow& tb = b.trials[i];
    EXPECT_EQ(ta.key.cell, tb.key.cell);
    EXPECT_EQ(ta.key.protocol, tb.key.protocol);
    EXPECT_EQ(ta.key.n, tb.key.n);
    EXPECT_EQ(ta.trial, tb.trial);
    // operator== compares every field exactly — bitwise for the doubles.
    EXPECT_EQ(ta.outcome, tb.outcome) << "trial " << i << " diverged";
  }
}

TEST(SweepDeterminism, ThreadCountInvariant) {
  const SweepGrid grid = small_grid();
  const SweepResult serial = run_sweep(grid, with_threads(1));
  const SweepResult four = run_sweep(grid, with_threads(4));
  const SweepResult eight = run_sweep(grid, with_threads(8));
  expect_identical(serial, four);
  expect_identical(serial, eight);
}

TEST(SweepDeterminism, RepeatedRunsIdentical) {
  const SweepGrid grid = small_grid();
  expect_identical(run_sweep(grid, with_threads(3)),
                   run_sweep(grid, with_threads(3)));
}

TEST(SweepDeterminism, AsymmetricAndThresholdScenarios) {
  for (const char* name : {"asymmetric", "multicommodity", "threshold-lb"}) {
    SweepGrid grid;
    grid.scenario.name = name;
    grid.protocols = parse_protocol_list("imitation");
    grid.ns = {60};
    grid.trials = 4;
    grid.master_seed = 7;
    grid.dynamics.max_rounds = 5000;
    grid.dynamics.stop = StopRule::kImitationStable;
    expect_identical(run_sweep(grid, with_threads(1)),
                     run_sweep(grid, with_threads(4)));
  }
}

TEST(SweepDeterminism, WrittenFilesIdenticalAcrossThreadCounts) {
  const SweepGrid grid = small_grid();
  const SweepResult serial = run_sweep(grid, with_threads(1));
  const SweepResult parallel = run_sweep(grid, with_threads(8));
  auto slurp_trials = [](const SweepResult& result, const std::string& path) {
    write_trials_jsonl(path, result);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(slurp_trials(serial, dir + "/sweep_t1.jsonl"),
            slurp_trials(parallel, dir + "/sweep_t8.jsonl"));
}

TEST(SweepRunner, CellAggregatesMatchTrials) {
  const SweepGrid grid = small_grid();
  const SweepResult result = run_sweep(grid, with_threads(2));
  ASSERT_EQ(result.cells.size(), grid.ns.size() * grid.protocols.size());
  ASSERT_EQ(result.trials.size(),
            result.cells.size() * static_cast<std::size_t>(grid.trials));
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellRow& cell = result.cells[c];
    double sum = 0.0;
    int converged = 0;
    for (int t = 0; t < grid.trials; ++t) {
      const TrialRow& trial =
          result.trials[c * static_cast<std::size_t>(grid.trials) +
                        static_cast<std::size_t>(t)];
      EXPECT_EQ(trial.key.cell, cell.key.cell);
      sum += trial.outcome.rounds;
      converged += trial.outcome.converged ? 1 : 0;
    }
    EXPECT_DOUBLE_EQ(cell.rounds.mean,
                     sum / static_cast<double>(grid.trials));
    EXPECT_DOUBLE_EQ(cell.fraction_converged,
                     static_cast<double>(converged) /
                         static_cast<double>(grid.trials));
  }
}

// run_sweep walks one TrialStreamCursor per cell; derive_trial_rng (the
// cid_serve worker's path) replays a cursor to a single trial. Both must
// give the historical stream of every (cell, trial): a fresh grid master,
// one split keyed by the cell, then split t of that cell master.
TEST(SweepStreams, CursorMatchesDeriveTrialRng) {
  for (const std::uint64_t seed : {1ULL, 99ULL, 0xC0FFEEULL}) {
    for (const std::uint32_t cell : {0U, 5U, 47U}) {
      Rng grid_master(seed);
      Rng cell_master = grid_master.split(cell);
      TrialStreamCursor cursor(seed, cell);
      for (std::uint32_t t = 0; t < 2000; ++t) {
        Rng historical = cell_master.split(t);
        Rng walked = cursor.next();
        Rng derived = derive_trial_rng(seed, cell, t);
        ASSERT_EQ(walked.state(), derived.state())
            << "seed " << seed << " cell " << cell << " trial " << t;
        ASSERT_EQ(walked.state(), historical.state())
            << "seed " << seed << " cell " << cell << " trial " << t;
        for (int draw = 0; draw < 4; ++draw) {
          const std::uint64_t next = walked.next_u64();
          ASSERT_EQ(next, derived.next_u64()) << "trial " << t;
          ASSERT_EQ(next, historical.next_u64()) << "trial " << t;
        }
      }
    }
  }
}

TEST(SweepStreams, ShardAndResumeMatchUnshardedSerial) {
  SweepGrid grid = small_grid();
  grid.trials = 40;
  const SweepResult serial = run_sweep(grid, with_threads(1));

  // --shard 2/3: every trial the shard owns matches the serial run.
  SweepOptions shard = with_threads(3);
  shard.shard_index = 2;
  shard.shard_count = 3;
  const SweepResult sharded = run_sweep(grid, shard);
  ASSERT_EQ(sharded.trials.size(), serial.trials.size());
  const std::uint64_t fingerprint = persist::grid_fingerprint(grid);
  std::size_t owned = 0;
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const TrialRow& row = serial.trials[i];
    if (trial_shard(fingerprint, static_cast<std::uint32_t>(row.key.cell),
                    static_cast<std::uint32_t>(row.trial), 3) != 2) {
      continue;
    }
    ++owned;
    EXPECT_EQ(sharded.trials[i].outcome, row.outcome) << "trial " << i;
  }
  EXPECT_GT(owned, 0U);

  // Resumed: an interrupted manifest run, finished by a second invocation
  // on another thread count, writes the serial run's trials byte for byte.
  const std::string dir = ::testing::TempDir();
  const std::string manifest = dir + "/streams_resume.manifest";
  std::remove(manifest.c_str());
  SweepOptions first = with_threads(2);
  first.manifest_path = manifest;
  first.max_new_trials = 70;
  EXPECT_FALSE(run_sweep(grid, first).complete);
  SweepOptions second = with_threads(4);
  second.manifest_path = manifest;
  const SweepResult resumed = run_sweep(grid, second);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_trials, 70U);
  expect_identical(serial, resumed);
  auto trials_csv = [](const SweepResult& result, const std::string& path) {
    write_trials_csv(path, result);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  EXPECT_EQ(trials_csv(serial, dir + "/streams_serial.csv"),
            trials_csv(resumed, dir + "/streams_resumed.csv"));
  std::remove(manifest.c_str());
}

TEST(SweepPool, MapTrialsMatchesHistoricalSerialHarness) {
  // The analysis harness has always run: master.split(t) serially, one
  // value per child. map_trials must reproduce that exactly — for every
  // thread count.
  const auto fn = [](Rng& rng) { return rng.uniform() + rng.uniform(); };
  Rng master(0xABCDE);
  std::vector<double> expected;
  for (int t = 0; t < 17; ++t) {
    Rng child = master.split(static_cast<std::uint64_t>(t));
    expected.push_back(fn(child));
  }
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(map_trials(17, 0xABCDE, fn, threads), expected)
        << "threads=" << threads;
  }
}

TEST(SweepPool, RunTrialsThreadInvariant) {
  const auto fn = [](Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform();
    return acc;
  };
  const TrialSet serial = run_trials(23, 42, fn, 1);
  const TrialSet parallel = run_trials(23, 42, fn, 8);
  EXPECT_EQ(serial.values, parallel.values);
  EXPECT_DOUBLE_EQ(serial.summary.mean, parallel.summary.mean);
  EXPECT_DOUBLE_EQ(serial.sem, parallel.sem);
}

TEST(SweepPool, ParallelForCoversEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(1000, 8, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SweepPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::int64_t i) {
                              if (i == 17) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

TEST(SweepPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(resolve_threads(0), 1);
}

TEST(SweepGridParsing, LogDecades) {
  EXPECT_EQ(parse_grid_axis("n=1000:100000:log"),
            (std::vector<std::int64_t>{1000, 10000, 100000}));
  // A non-decade endpoint is still included.
  EXPECT_EQ(parse_grid_axis("100:5000:log"),
            (std::vector<std::int64_t>{100, 1000, 5000}));
}

TEST(SweepGridParsing, LogWithPointCountHitsEndpoints) {
  const auto values = parse_grid_axis("n=100:100000:log:4");
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values.front(), 100);
  EXPECT_EQ(values.back(), 100000);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

TEST(SweepGridParsing, LinearAndList) {
  EXPECT_EQ(parse_grid_axis("n=100:500:lin:5"),
            (std::vector<std::int64_t>{100, 200, 300, 400, 500}));
  EXPECT_EQ(parse_grid_axis("n=100,1000,5000"),
            (std::vector<std::int64_t>{100, 1000, 5000}));
  // Non-adjacent duplicates are dropped too (first occurrence wins): a
  // duplicated n would mint two cells with the same key.
  EXPECT_EQ(parse_grid_axis("n=1000,100,1000"),
            (std::vector<std::int64_t>{1000, 100}));
}

TEST(SweepGridParsing, Rejections) {
  EXPECT_THROW(parse_grid_axis(""), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=10:5:log"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=10:100:cubic"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=0:10:lin"), std::runtime_error);
  EXPECT_THROW(parse_grid_axis("n=1:10:log:1"), std::runtime_error);
}

// The grid flags cid_sweep and cid_serve both parse through GridFlags:
// every flag lands in the grid, --lambda reaches every protocol whatever
// the flag order, and a bad value is an error, not a guess.
TEST(SweepGridParsing, GridFlagsSharedByTheTools) {
  const auto parse = [](std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    GridFlags flags;
    for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
      if (!flags.consume(static_cast<int>(argv.size()), argv.data(), i)) {
        throw std::runtime_error("not a grid flag: " + std::string(argv[i]));
      }
    }
    return flags.finish();
  };
  const SweepGrid grid = parse(
      {"--lambda", "0.5", "--scenario", "load-balancing", "--param", "m=4",
       "--grid", "100,200", "--protocols", "imitation,combined",
       "--trials", "3", "--seed", "9", "--rounds", "50",
       "--check-interval", "5", "--stop", "deltaeps:0.2,0.3", "--engine",
       "perplayer"});
  EXPECT_EQ(grid.scenario.name, "load-balancing");
  EXPECT_EQ(grid.scenario.params.at("m"), 4.0);
  EXPECT_EQ(grid.ns, (std::vector<std::int64_t>{100, 200}));
  ASSERT_EQ(grid.protocols.size(), 2u);
  for (const ProtocolSpec& protocol : grid.protocols) {
    EXPECT_EQ(protocol.lambda, 0.5);
  }
  EXPECT_EQ(grid.trials, 3);
  EXPECT_EQ(grid.master_seed, 9u);
  EXPECT_EQ(grid.dynamics.max_rounds, 50);
  EXPECT_EQ(grid.dynamics.check_interval, 5);
  EXPECT_EQ(grid.dynamics.stop, StopRule::kDeltaEps);
  EXPECT_EQ(grid.dynamics.delta, 0.2);
  EXPECT_EQ(grid.dynamics.eps, 0.3);
  EXPECT_EQ(grid.dynamics.mode, EngineMode::kPerPlayer);

  const std::vector<std::vector<std::string>> bad = {
      {"--grid", "100"},                                  // no scenario
      {"--scenario", "x", "--trials"},                    // missing value
      {"--scenario", "x", "--trials", "0"},
      {"--scenario", "x", "--rounds", "-1"},
      {"--scenario", "x", "--check-interval", "0"},
      {"--scenario", "x", "--lambda", "1.5"},
      {"--scenario", "x", "--seed", "3abc"},
      {"--scenario", "x", "--stop", "deltaeps:0.1"},
      {"--scenario", "x", "--engine", "fast"},
      {"--scenario", "x", "--param", "=4"},
  };
  for (const auto& args : bad) {
    SCOPED_TRACE(args.back());
    EXPECT_THROW(parse(args), std::runtime_error);
  }
}

TEST(SweepProtocols, ParsingAndConstruction) {
  const auto specs = parse_protocol_list("imitation,exploration,combined:0.3");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "imitation");
  EXPECT_EQ(specs[1].name, "exploration");
  EXPECT_EQ(specs[2].name, "combined");
  EXPECT_DOUBLE_EQ(specs[2].p_explore, 0.3);
  for (const ProtocolSpec& spec : specs) {
    EXPECT_FALSE(build_protocol(spec)->name().empty());
  }
  EXPECT_THROW(parse_protocol_list("imitation,,combined"),
               std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("mutation"), std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("imitation:0.5"), std::runtime_error);
  EXPECT_THROW(parse_protocol_spec("combined:1.5"), std::runtime_error);
}

TEST(SweepScenarios, RegistryIsComplete) {
  for (const char* name :
       {"singleton-uniform", "load-balancing", "network-routing",
        "asymmetric", "multicommodity", "threshold-lb"}) {
    const Scenario* scenario = find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    ScenarioSpec spec;
    spec.name = name;
    const auto instance = make_scenario(spec, 64);
    EXPECT_FALSE(instance->describe().empty());
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
  ScenarioSpec unknown;
  unknown.name = "no-such-scenario";
  EXPECT_THROW(make_scenario(unknown, 100), std::runtime_error);
}

TEST(SweepScenarios, AsymmetricRejectsNonImitation) {
  ScenarioSpec spec;
  spec.name = "multicommodity";
  const auto instance = make_scenario(spec, 100);
  ProtocolSpec exploration;
  exploration.name = "exploration";
  Rng rng(1);
  EXPECT_THROW(instance->run_trial(exploration, DynamicsConfig{}, rng),
               std::runtime_error);
}

TEST(SweepOutput, WritersProduceExpectedShape) {
  const SweepGrid grid = small_grid();
  const SweepResult result = run_sweep(grid, with_threads(2));
  const std::string prefix = ::testing::TempDir() + "/cid_sweep_out";
  const auto paths = write_sweep_outputs(prefix, result);
  ASSERT_EQ(paths.size(), 4u);
  auto count_lines = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    return lines;
  };
  // CSV: header + one line per row. JSONL: one object per row.
  EXPECT_EQ(count_lines(paths[0].path), result.trials.size() + 1);
  EXPECT_EQ(count_lines(paths[1].path), result.cells.size() + 1);
  EXPECT_EQ(count_lines(paths[2].path), result.trials.size());
  EXPECT_EQ(count_lines(paths[3].path), result.cells.size());
  for (const auto& file : paths) {
    // The reported byte count is the real file size (the observability
    // summary in cid_sweep depends on it).
    EXPECT_EQ(file.bytes, std::filesystem::file_size(file.path));
    std::remove(file.path.c_str());
  }
}

}  // namespace
}  // namespace cid::sweep
