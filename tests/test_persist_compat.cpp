// Format-compatibility matrix over a checked-in corpus of v1 artifacts
// (tests/fixtures/persist/, generated by the PR-2-era binaries and frozen).
//
//   * new-reader/old-file: the TLV-era readers must load every v1
//     artifact — snapshot, event log, sweep manifest — with full semantic
//     fidelity (replaying the v1 event log from the v1 snapshot's game
//     reproduces the v1 final state bit-for-bit);
//   * old-reader/new-file: covered in test_persist.cpp by feeding files
//     with unknown sections / future version bytes to today's readers
//     (the skip-unknown policy makes today's reader the "old" one);
//   * upgrade path: a v1 artifact rewritten through today's writers
//     round-trips without semantic drift.
//
// CI runs this suite in a dedicated format-compatibility job so an
// accidental breaking change to the on-disk formats can never land
// silently. The fixtures are immutable: regenerate them ONLY for a
// deliberate, documented major-version break.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dynamics/engine.hpp"
#include "game/io.hpp"
#include "persist/binio.hpp"
#include "persist/checkpoint.hpp"
#include "persist/eventlog.hpp"
#include "persist/manifest.hpp"
#include "persist/snapshot.hpp"
#include "protocols/imitation.hpp"
#include "sweep/runner.hpp"
#include "util/rng.hpp"

#ifndef CID_PERSIST_FIXTURE_DIR
#error "CID_PERSIST_FIXTURE_DIR must point at tests/fixtures/persist"
#endif

namespace cid::persist {
namespace {

std::string fixture(const std::string& name) {
  return std::string(CID_PERSIST_FIXTURE_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The exact invocation that generated the fixtures (see the corpus
// README): cid_sim --game fixture_v1.game --rounds 40 --seed 42
// --stop nash, cid_sweep --scenario load-balancing --param m=4
// --grid n=100,200 --trials 3 --seed 7 --rounds 50.
constexpr std::int64_t kFixtureRounds = 40;
constexpr std::uint64_t kFixtureSeed = 42;

sweep::SweepGrid fixture_grid() {
  sweep::SweepGrid grid;
  grid.scenario.name = "load-balancing";
  grid.scenario.params = {{"m", 4.0}};
  grid.protocols = sweep::parse_protocol_list("imitation");
  grid.ns = {100, 200};
  grid.trials = 3;
  grid.master_seed = 7;
  grid.dynamics.max_rounds = 50;
  return grid;
}

TEST(PersistCompat, V1SnapshotLoads) {
  const Snapshot snapshot = load_snapshot(fixture("final_v1.cidsnap"));
  EXPECT_EQ(snapshot.round, kFixtureRounds);
  EXPECT_EQ(snapshot.config.protocol, "imitation");
  EXPECT_EQ(snapshot.config.stop, "nash");
  EXPECT_EQ(snapshot.movers, 0);  // v1 predates the trial-stats section
  EXPECT_EQ(snapshot.game.num_players(), 5000);
  EXPECT_EQ(snapshot.game.num_resources(), 6);
  // The embedded game must equal the checked-in text-format game.
  const CongestionGame game = load_game(fixture("fixture_v1.game"));
  EXPECT_EQ(serialize_game(snapshot.game), serialize_game(game));
}

TEST(PersistCompat, V1EventLogReplaysToTheV1FinalState) {
  const Snapshot final_snapshot = load_snapshot(fixture("final_v1.cidsnap"));
  const EventLog log = read_event_log(fixture("run_v1.cidelog"));
  EXPECT_EQ(log.version, 1);
  EXPECT_FALSE(log.truncated_tail);
  ASSERT_EQ(log.rounds.size(), static_cast<std::size_t>(kFixtureRounds));

  // Rebuild the run's initial state exactly as cid_sim did (--start
  // uniform draws it from the seed before any round), then replay the v1
  // log with zero RNG draws: the result must equal both the v1 snapshot
  // state and the checked-in v1 text state.
  Rng rng(kFixtureSeed);
  State x = State::uniform_random(final_snapshot.game, rng);
  const std::int64_t applied = replay_rounds(final_snapshot.game, x,
                                             log.rounds, 0, kFixtureRounds);
  EXPECT_EQ(applied, kFixtureRounds);
  EXPECT_TRUE(x == final_snapshot.state());
  const State text_state =
      load_state(final_snapshot.game, fixture("final_v1.cidstate"));
  EXPECT_TRUE(x == text_state);
}

TEST(PersistCompat, V1RunReproducesFromItsGenerationCommand) {
  // An end-to-end pin on the random stream: re-run the fixture's cid_sim
  // command (imitation, lambda 0.25, aggregate engine, --start uniform,
  // --stop nash) through today's engine. Every round's migrations must
  // equal the frozen v1 log, and the final state and generator state must
  // equal the frozen snapshot and text state. Any change to which
  // uniforms the samplers draw, or to what they return, breaks this.
  const CongestionGame game = load_game(fixture("fixture_v1.game"));
  const EventLog log = read_event_log(fixture("run_v1.cidelog"));
  const Snapshot final_snapshot = load_snapshot(fixture("final_v1.cidsnap"));

  Rng rng(kFixtureSeed);
  State x = State::uniform_random(game, rng);
  const ImitationProtocol protocol{ImitationParams{}};
  std::vector<RoundEvents> rounds;
  EngineInvocation call;
  call.options.max_rounds = kFixtureRounds;
  call.cached_stop = cached_stop_from_spec("nash");
  call.observer = [&rounds](const CongestionGame&, const State&,
                            std::span<const Migration> moves,
                            std::int64_t round, bool final) {
    if (!final) rounds.push_back({round, {moves.begin(), moves.end()}});
  };
  const RunResult result = run_dynamics(game, x, protocol, rng, call);

  EXPECT_EQ(result.rounds, kFixtureRounds);
  ASSERT_EQ(rounds.size(), log.rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, log.rounds[i].round);
    ASSERT_EQ(rounds[i].moves.size(), log.rounds[i].moves.size())
        << "round " << i;
    for (std::size_t m = 0; m < rounds[i].moves.size(); ++m) {
      EXPECT_EQ(rounds[i].moves[m].from, log.rounds[i].moves[m].from);
      EXPECT_EQ(rounds[i].moves[m].to, log.rounds[i].moves[m].to);
      EXPECT_EQ(rounds[i].moves[m].count, log.rounds[i].moves[m].count)
          << "round " << i << " move " << m;
    }
  }
  EXPECT_TRUE(x == load_state(game, fixture("final_v1.cidstate")));
  EXPECT_TRUE(x == final_snapshot.state());
  EXPECT_EQ(rng.state(), final_snapshot.rng_state);
}

TEST(PersistCompat, V1ManifestLoadsAgainstItsGrid) {
  const sweep::SweepGrid grid = fixture_grid();
  const ManifestContents contents =
      load_manifest(fixture("sweep_v1.cidmani"), grid);
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.cells, 2u);
  EXPECT_EQ(contents.trials_per_cell, 3u);
  EXPECT_EQ(contents.completed.size(), 6u);  // the full fixture sweep

  // A different grid must still be rejected (the fingerprint guarantee
  // survives the version bridge).
  sweep::SweepGrid other = fixture_grid();
  other.master_seed = 8;
  EXPECT_THROW(load_manifest(fixture("sweep_v1.cidmani"), other),
               persist_error);
}

TEST(PersistCompat, V1SnapshotUpgradesThroughTheV2Writer) {
  const Snapshot v1 = load_snapshot(fixture("final_v1.cidsnap"));
  const std::string path = temp_path("upgraded.snap");
  save_snapshot(v1, path);  // writes v2 TLV
  const Snapshot v2 = load_snapshot(path);
  EXPECT_EQ(v2.round, v1.round);
  EXPECT_EQ(v2.config, v1.config);
  EXPECT_EQ(v2.rng_state, v1.rng_state);
  EXPECT_EQ(v2.counts, v1.counts);
  EXPECT_EQ(serialize_game(v2.game), serialize_game(v1.game));
  std::remove(path.c_str());
}

TEST(PersistCompat, V1EventLogUpgradesThroughTheV2Writer) {
  const EventLog v1 = read_event_log(fixture("run_v1.cidelog"));
  const std::string path = temp_path("upgraded.elog");
  {
    EventLogWriter writer = EventLogWriter::create(path);  // v2 compressed
    for (const RoundEvents& events : v1.rounds) {
      writer.append(events.round, events.moves);
    }
    writer.close();
  }
  const EventLog v2 = read_event_log(path);
  EXPECT_EQ(v2.version, kEventLogVersion);
  ASSERT_EQ(v2.rounds.size(), v1.rounds.size());
  for (std::size_t i = 0; i < v1.rounds.size(); ++i) {
    EXPECT_EQ(v2.rounds[i].round, v1.rounds[i].round);
    ASSERT_EQ(v2.rounds[i].moves.size(), v1.rounds[i].moves.size());
    for (std::size_t m = 0; m < v1.rounds[i].moves.size(); ++m) {
      EXPECT_EQ(v2.rounds[i].moves[m].from, v1.rounds[i].moves[m].from);
      EXPECT_EQ(v2.rounds[i].moves[m].to, v1.rounds[i].moves[m].to);
      EXPECT_EQ(v2.rounds[i].moves[m].count, v1.rounds[i].moves[m].count);
    }
  }
  // Same rounds, strictly fewer bytes (delta + varint even before LZ wins
  // on this short, busy log).
  EXPECT_LT(v2.file_bytes, v1.file_bytes);
  EXPECT_EQ(v2.v1_equivalent_bytes, v1.file_bytes);
  std::remove(path.c_str());
}

TEST(PersistCompat, V1EventLogAcceptsAppendsAndStaysV1) {
  // Copy the fixture, then continue it with today's writer: the appended
  // records must stay in v1 format (an old reader can still read the
  // whole file).
  const std::string path = temp_path("continued_v1.elog");
  {
    const std::string bytes = slurp_file(fixture("run_v1.cidelog"));
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    ASSERT_EQ(std::fclose(out), 0);
  }
  {
    EventLogWriter writer =
        EventLogWriter::open_for_append(path, kFixtureRounds);
    writer.append(kFixtureRounds, std::vector<Migration>{{0, 1, 9}});
    writer.close();
  }
  const EventLog log = read_event_log(path);
  EXPECT_EQ(log.version, 1);  // still v1 end to end
  ASSERT_EQ(log.rounds.size(), static_cast<std::size_t>(kFixtureRounds) + 1);
  EXPECT_EQ(log.rounds.back().moves[0].count, 9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cid::persist
