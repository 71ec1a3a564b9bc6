// Kill-and-resume guarantees (the acceptance contract of src/persist/):
//
//   * a run checkpointed at round k and resumed produces a final state,
//     trace, and event log byte-identical to the uninterrupted run;
//   * replaying snapshot + event log reconstructs the final state with
//     zero RNG draws (replay_rounds takes no Rng at all — the test checks
//     the reconstruction is exact).
//
// The test game uses integer-coefficient latencies so every potential /
// latency value is an exactly-representable integer: the incremental
// potential tracker and a fresh recomputation then agree bit-for-bit, and
// "byte-identical trace" is meaningful rather than hostage to summation
// order.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace.hpp"
#include "dynamics/engine.hpp"
#include "game/builders.hpp"
#include "persist/binio.hpp"
#include "game/io.hpp"
#include "latency/latency.hpp"
#include "persist/checkpoint.hpp"
#include "persist/eventlog.hpp"
#include "persist/snapshot.hpp"
#include "protocols/combined.hpp"
#include "protocols/imitation.hpp"

namespace cid::persist {
namespace {

// The kill lands early in the active phase (migration on this instance
// persists for ~25 rounds from a uniform start), so the resumed segment
// carries real migrations — the test guards against a vacuous tail below.
constexpr std::int64_t kTotalRounds = 40;
constexpr std::int64_t kKillRound = 5;
constexpr std::uint64_t kSeed = 42;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Integer-latency singleton game (see file comment).
CongestionGame make_game() {
  std::vector<LatencyPtr> fns;
  for (int e = 0; e < 6; ++e) {
    fns.push_back(make_linear(static_cast<double>(1 + e)));
  }
  return make_singleton_game(std::move(fns), 5000);
}

std::unique_ptr<Protocol> make_protocol() {
  ImitationParams ip;
  ExplorationParams ep;
  return std::make_unique<CombinedProtocol>(ip, ep, 0.5);
}

SimConfig make_config() {
  SimConfig config;
  config.protocol = "combined";
  config.engine = static_cast<std::uint8_t>(EngineMode::kAggregate);
  config.stop = "nash";  // never fires on this instance within the horizon
  return config;
}

struct RunArtifacts {
  std::vector<std::int64_t> final_counts;
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<RoundRecord> trace;
  std::string event_log_bytes;
};

/// The uninterrupted reference: one run over [0, kTotalRounds).
RunArtifacts uninterrupted(const std::string& log_path) {
  const CongestionGame game = make_game();
  Rng rng(kSeed);
  State x = State::uniform_random(game, rng);
  const auto protocol = make_protocol();

  TraceRecorder trace(game, x, 5);
  EventLogWriter log = EventLogWriter::create(log_path);
  RunOptions options;
  options.max_rounds = kTotalRounds;
  const RunResult result =
      run_dynamics(game, x, *protocol, rng,
                   EngineInvocation{options, {}, {},
                                    chain_observers(trace.observer(),
                                                    log.observer())});
  log.close();
  EXPECT_EQ(result.rounds, kTotalRounds);

  RunArtifacts artifacts;
  artifacts.final_counts.assign(x.counts().begin(), x.counts().end());
  artifacts.rng_state = rng.state();
  artifacts.trace = trace.records();
  artifacts.event_log_bytes = slurp_file(log_path);
  return artifacts;
}

TEST(KillAndResume, ByteIdenticalToUninterruptedRun) {
  const std::string full_log = temp_path("full.elog");
  const std::string resumed_log = temp_path("resumed.elog");
  const std::string snap = temp_path("kill.snap");
  const RunArtifacts reference = uninterrupted(full_log);

  // Leg 1: run to kKillRound, checkpointing only at the end (the "kill").
  {
    const CongestionGame game = make_game();
    Rng rng(kSeed);
    State x = State::uniform_random(game, rng);
    const auto protocol = make_protocol();
    TraceRecorder trace(game, x, 5);
    EventLogWriter log = EventLogWriter::create(resumed_log);
    const Checkpointer checkpointer(game, rng, CheckpointConfig{snap, 0},
                                    make_config());
    RunOptions options;
    options.max_rounds = kKillRound;
    run_dynamics(game, x, *protocol, rng,
                 EngineInvocation{
                     options, {}, {},
                     chain_observers(
                         chain_observers(trace.observer(), log.observer()),
                         checkpointer.observer())});
    log.close();
  }

  // Leg 2: resume from the snapshot in a fresh "process" (no state shared
  // with leg 1 beyond the files on disk).
  ResumedRun resumed = resume_run(snap);
  EXPECT_EQ(resumed.round, kKillRound);
  EXPECT_EQ(resumed.protocol->name(), make_protocol()->name());
  TraceRecorder trace(*resumed.game, resumed.state, 5);
  EventLogWriter log =
      EventLogWriter::open_for_append(resumed_log, resumed.round);
  RunOptions options;
  options.max_rounds = kTotalRounds;
  options.start_round = resumed.round;
  options.mode = resumed.mode;
  const RunResult result = run_dynamics(
      *resumed.game, resumed.state, *resumed.protocol, resumed.rng,
      EngineInvocation{options, {}, {},
                       chain_observers(trace.observer(), log.observer())});
  log.close();
  EXPECT_EQ(result.rounds, kTotalRounds);

  // Final state and RNG stream position: identical.
  const std::vector<std::int64_t> final_counts(
      resumed.state.counts().begin(), resumed.state.counts().end());
  EXPECT_EQ(final_counts, reference.final_counts);
  EXPECT_EQ(resumed.rng.state(), reference.rng_state);

  // Event log: the appended file is byte-identical to the uninterrupted
  // run's, including the rounds written before the kill.
  EXPECT_EQ(slurp_file(resumed_log), reference.event_log_bytes);

  // Trace: leg-2 records must equal the uninterrupted tail exactly, field
  // by field (bitwise doubles — integer latencies make this well-defined).
  const auto& tail = trace.records();
  ASSERT_GE(reference.trace.size(), tail.size());
  const std::size_t offset = reference.trace.size() - tail.size();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const RoundRecord& a = reference.trace[offset + i];
    const RoundRecord& b = tail[i];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.potential, b.potential);
    EXPECT_EQ(a.average_latency, b.average_latency);
    EXPECT_EQ(a.plus_average_latency, b.plus_average_latency);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.movers, b.movers);
    EXPECT_EQ(a.support_size, b.support_size);
  }
  // And the resumed segment genuinely moved players (the test would be
  // vacuous if the dynamics had frozen before the kill).
  std::int64_t tail_movers = 0;
  for (const auto& record : tail) tail_movers += record.movers;
  EXPECT_GT(tail_movers, 0);

  std::remove(full_log.c_str());
  std::remove(resumed_log.c_str());
  std::remove(snap.c_str());
}

TEST(Replay, ReconstructsFinalStateWithZeroRngDraws) {
  const std::string log_path = temp_path("replay.elog");
  const std::string initial_snap = temp_path("initial.snap");
  const std::string final_snap = temp_path("final.snap");

  // One checkpointed run: snapshot at round 0 and at the end, full log.
  {
    const CongestionGame game = make_game();
    Rng rng(kSeed);
    State x = State::uniform_random(game, rng);
    const auto protocol = make_protocol();
    const Checkpointer checkpointer(game, rng,
                                    CheckpointConfig{final_snap, 0},
                                    make_config());
    save_snapshot(make_snapshot(game, x, rng, 0, make_config()),
                  initial_snap);
    EventLogWriter log = EventLogWriter::create(log_path);
    RunOptions options;
    options.max_rounds = kTotalRounds;
    run_dynamics(
        game, x, *protocol, rng,
        EngineInvocation{options, {}, {},
                         chain_observers(log.observer(),
                                         checkpointer.observer())});
    log.close();
  }

  // Replay from round 0: replay_rounds takes no Rng — zero draws by
  // construction; the reconstruction must still be exact.
  const Snapshot initial = load_snapshot(initial_snap);
  const Snapshot final_snapshot = load_snapshot(final_snap);
  const EventLog log = read_event_log(log_path);
  EXPECT_FALSE(log.truncated_tail);
  State x = initial.state();
  const std::int64_t applied =
      replay_rounds(initial.game, x, log.rounds, 0, kTotalRounds);
  EXPECT_EQ(applied, kTotalRounds);
  EXPECT_TRUE(x == final_snapshot.state());
  EXPECT_EQ(final_snapshot.round, kTotalRounds);

  // Partial replay to the midpoint must match a cadence checkpoint there.
  const std::string cadence_snap = temp_path("cadence.snap");
  {
    const CongestionGame game = make_game();
    Rng rng(kSeed);
    State y = State::uniform_random(game, rng);
    const auto protocol = make_protocol();
    const Checkpointer checkpointer(
        game, rng, CheckpointConfig{cadence_snap, kKillRound},
        make_config());
    RunOptions options;
    options.max_rounds = kKillRound;  // last cadence write IS round 60
    run_dynamics(game, y, *protocol, rng,
                 EngineInvocation{options, {}, {}, checkpointer.observer()});
  }
  const Snapshot mid = load_snapshot(cadence_snap);
  EXPECT_EQ(mid.round, kKillRound);
  State z = initial.state();
  replay_rounds(initial.game, z, log.rounds, 0, kKillRound);
  EXPECT_TRUE(z == mid.state());

  std::remove(log_path.c_str());
  std::remove(initial_snap.c_str());
  std::remove(final_snap.c_str());
  std::remove(cadence_snap.c_str());
}

TEST(Resume, SaveStateAndLoadStateRoundTripThroughFiles) {
  const CongestionGame game = make_game();
  Rng rng(3);
  const State x = State::uniform_random(game, rng);
  const std::string path = temp_path("state.txt");
  save_state(x, path);
  const State loaded = load_state(game, path);
  EXPECT_TRUE(loaded == x);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cid::persist
