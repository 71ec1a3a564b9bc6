// Oracle equivalence for the batched round kernel.
//
// The engine's hot path (cached LatencyContext + the kernels' row bodies +
// workspace draws) must be BITWISE indistinguishable from the per-pair
// oracle in tests/protocol_oracle.hpp (one move_probability call per
// (from, to) pair, no caching):
//
//   1. round level — draw_round vs oracle::draw_round_reference produce
//      identical Migration lists AND consume the RNG stream identically,
//      sustained over many applied rounds (so the incremental cache refresh
//      is exercised, not just the initial full build), for all three
//      protocols x both engine modes x singleton and network games;
//   2. probability level — kernel rows match the per-pair move_probability
//      oracle bit-for-bit, including after incremental refreshes;
//   3. run level — run_dynamics matches oracle::run_dynamics_reference on
//      whole runs; every registry family with a round engine produces the
//      TrialOutcome (and RNG stream) of the same trial replayed on the
//      oracle's reference loops: the symmetric families audit the batched
//      kernel + cached stop predicates, the asymmetric families the batched
//      class-local kernel (dynamics/asymmetric_engine.hpp) + cached
//      class-wise predicates;
//   4. persistence level — a batched-kernel trial that is checkpointed,
//      killed, and resumed bitwise-matches the uninterrupted trial on the
//      reference loop, so checkpoint artifacts carry no trace of the kernel
//      (symmetric AND asymmetric snapshot codecs);
//   5. thread level — RunOptions/DynamicsConfig::row_threads ∈ {1, 2, 4}
//      produce byte-identical trials and RNG streams (the parallel row
//      fills are pure; the draw phase is serial either way).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/equilibrium.hpp"
#include "game/asymmetric.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "game/singleton.hpp"
#include "protocol_oracle.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

CongestionGame network_game_k8(std::int64_t n) {
  // 2^3 = 8 overlapping paths: non-singleton, so the ex-post merge walks
  // genuinely shared resources.
  const auto net = make_layered_network(2, 3);
  Rng latency_rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + latency_rng.uniform(),
                                latency_rng.bernoulli(0.5) ? 1.0 : 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

std::vector<std::unique_ptr<Protocol>> all_protocols() {
  std::vector<std::unique_ptr<Protocol>> protocols;
  protocols.push_back(std::make_unique<ImitationProtocol>());
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;  // innovative imitation reaches empties
  protocols.push_back(std::make_unique<ImitationProtocol>(virtual_params));
  protocols.push_back(std::make_unique<ExplorationProtocol>());
  protocols.push_back(std::make_unique<CombinedProtocol>(
      ImitationParams{}, ExplorationParams{}, 0.5));
  return protocols;
}

void expect_rounds_identical(const CongestionGame& game, EngineMode mode,
                             std::int64_t rounds, std::uint64_t seed) {
  for (const auto& protocol : all_protocols()) {
    SCOPED_TRACE(protocol->name());
    // Two independent copies of everything; only the kernel differs.
    Rng batched_rng(seed);
    Rng reference_rng(seed);
    State batched_x = State::uniform_random(game, batched_rng);
    State reference_x = State::uniform_random(game, reference_rng);
    RoundWorkspace ws;
    RoundResult batched;
    for (std::int64_t round = 0; round < rounds; ++round) {
      draw_round(game, batched_x, *protocol, batched_rng, mode, ws, batched);
      const RoundResult reference = oracle::draw_round_reference(
          game, reference_x, *protocol, reference_rng, mode);
      ASSERT_EQ(batched.moves, reference.moves) << "round " << round;
      ASSERT_EQ(batched.movers, reference.movers) << "round " << round;
      // Identical RNG stream consumption, not just identical output.
      ASSERT_EQ(batched_rng.state(), reference_rng.state())
          << "round " << round;
      // Apply through the incremental-cache path on the batched side and
      // the plain path on the reference side.
      batched_x.apply(game, batched.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
      reference_x.apply(game, reference.moves);
      ASSERT_TRUE(batched_x == reference_x) << "round " << round;
    }
  }
}

TEST(EngineOracle, AggregateRoundsBitwiseIdenticalSingleton) {
  expect_rounds_identical(make_monomial_fan_game(12, 1.0, 1.0, 5000),
                          EngineMode::kAggregate, 60, 21);
}

TEST(EngineOracle, AggregateRoundsBitwiseIdenticalNetwork) {
  expect_rounds_identical(network_game_k8(4000), EngineMode::kAggregate, 60,
                          22);
}

TEST(EngineOracle, PerPlayerRoundsBitwiseIdenticalSingleton) {
  expect_rounds_identical(make_monomial_fan_game(12, 1.0, 1.0, 600),
                          EngineMode::kPerPlayer, 30, 23);
}

TEST(EngineOracle, PerPlayerRoundsBitwiseIdenticalNetwork) {
  expect_rounds_identical(network_game_k8(400), EngineMode::kPerPlayer, 30,
                          24);
}

TEST(EngineOracle, BatchedRowsMatchMoveProbabilityOracle) {
  const auto game = network_game_k8(3000);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(31);
  State x = State::uniform_random(game, rng);
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  const ImitationProtocol imitation;
  for (int round = 0; round < 25; ++round) {
    for (const auto& protocol : all_protocols()) {
      SCOPED_TRACE(protocol->name());
      std::vector<double> row(k);
      for (StrategyId from = 0; from < game.num_strategies(); ++from) {
        dispatch_protocol_kernel(*protocol, [&](const auto& kernel) {
          kernel.fill_row(game, ctx, from, row);
        });
        for (StrategyId to = 0; to < game.num_strategies(); ++to) {
          const double oracle =
              to == from
                  ? 0.0
                  : oracle::move_probability(*protocol, game, x, from, to);
          // Bitwise: EXPECT_EQ on doubles, not EXPECT_NEAR.
          ASSERT_EQ(row[static_cast<std::size_t>(to)], oracle)
              << "round " << round << " pair " << from << "->" << to;
        }
      }
    }
    // Mutate the state through a real draw and refresh incrementally, so
    // later iterations audit refreshed cache entries rather than the
    // initial full build.
    const RoundResult rr =
        draw_round(game, x, imitation, rng, EngineMode::kAggregate);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
  }
}

TEST(EngineOracle, RunDynamicsMatchesAcrossKernels) {
  // Whole-run equivalence incl. stop predicate and mover accounting.
  const auto game = make_monomial_fan_game(10, 2.0, 1.0, 20000);
  const ImitationProtocol protocol;
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    EngineInvocation call;
    call.options.max_rounds = mode == EngineMode::kAggregate ? 200 : 40;
    call.options.mode = mode;
    Rng batched_rng(7);
    State batched_x = State::uniform_random(game, batched_rng);
    const RunResult batched =
        run_dynamics(game, batched_x, protocol, batched_rng, call);
    Rng reference_rng(7);
    State reference_x = State::uniform_random(game, reference_rng);
    const RunResult reference = oracle::run_dynamics_reference(
        game, reference_x, protocol, reference_rng, call);
    EXPECT_EQ(batched.rounds, reference.rounds);
    EXPECT_EQ(batched.total_movers, reference.total_movers);
    EXPECT_TRUE(batched_x == reference_x);
    EXPECT_EQ(batched_rng.state(), reference_rng.state());
    EXPECT_GT(batched.latency_evals, 0);   // the cache actually metered
    EXPECT_EQ(reference.latency_evals, 0);  // oracle path is unmetered
  }
}

// ---- Asymmetric batched kernel ----------------------------------------------

AsymmetricGame oracle_asymmetric_game() {
  // Two classes sharing a middle link (multicommodity-style) plus private
  // alternatives, so the class-local ex-post merges cross genuinely
  // shared congestion.
  std::vector<LatencyPtr> fns{make_linear(1.5), make_monomial(0.1, 2.0),
                              make_linear(0.75), make_linear(3.0),
                              make_monomial(0.2, 2.0), make_linear(1.0)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = 700;
  classes[1].strategies = {{2}, {3}, {4}, {5}};
  classes[1].num_players = 500;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

TEST(EngineOracle, AsymmetricRoundsBitwiseIdentical) {
  const auto game = oracle_asymmetric_game();
  for (const bool nu_cutoff : {true, false}) {
    SCOPED_TRACE(nu_cutoff ? "nu-cutoff" : "no-nu");
    AsymmetricImitationParams params;
    params.nu_cutoff = nu_cutoff;
    Rng batched_rng(61);
    Rng reference_rng(61);
    AsymmetricState batched_x =
        AsymmetricState::uniform_random(game, batched_rng);
    AsymmetricState reference_x =
        AsymmetricState::uniform_random(game, reference_rng);
    AsymmetricRoundWorkspace ws;
    AsymmetricRoundResult batched;
    for (int round = 0; round < 80; ++round) {
      draw_asymmetric_round(game, batched_x, params, batched_rng, ws,
                            batched);
      const AsymmetricRoundResult reference =
          oracle::draw_asymmetric_round_reference(game, reference_x, params,
                                                  reference_rng);
      ASSERT_EQ(batched.moves.size(), reference.moves.size())
          << "round " << round;
      for (std::size_t i = 0; i < batched.moves.size(); ++i) {
        ASSERT_EQ(batched.moves[i].player_class,
                  reference.moves[i].player_class);
        ASSERT_EQ(batched.moves[i].from, reference.moves[i].from);
        ASSERT_EQ(batched.moves[i].to, reference.moves[i].to);
        ASSERT_EQ(batched.moves[i].count, reference.moves[i].count);
      }
      ASSERT_EQ(batched.movers, reference.movers) << "round " << round;
      // Identical RNG stream consumption, not just identical output —
      // this is what makes pruning invisible to replays.
      ASSERT_EQ(batched_rng.state(), reference_rng.state())
          << "round " << round;
      batched_x.apply(game, batched.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
      reference_x.apply(game, reference.moves);
      ASSERT_EQ(batched_x.counts(), reference_x.counts())
          << "round " << round;
    }
  }
}

TEST(EngineOracle, AsymmetricRowThreadsBitwiseInvariant) {
  const auto game = oracle_asymmetric_game();
  const AsymmetricImitationParams params;
  std::vector<std::vector<std::vector<std::int64_t>>> finals;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  for (const int row_threads : {1, 2, 4}) {
    Rng rng(62);
    AsymmetricState x = AsymmetricState::uniform_random(game, rng);
    AsymmetricRoundWorkspace ws;
    AsymmetricRoundResult rr;
    for (int round = 0; round < 40; ++round) {
      step_asymmetric_round(game, x, params, rng, ws, rr, row_threads);
    }
    finals.push_back(x.counts());
    rng_states.push_back(rng.state());
  }
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
  EXPECT_EQ(rng_states[0], rng_states[1]);
  EXPECT_EQ(rng_states[0], rng_states[2]);
}

// ---- Registry scenario families ---------------------------------------------

struct FamilyCase {
  const char* scenario;
  std::int64_t n;
  const char* protocol;
  std::int64_t rounds;
};

// threshold-lb runs sequential dynamics, not a round engine, so it has no
// per-pair round oracle and is not listed.
const FamilyCase kFamilies[] = {
    {"singleton-uniform", 2000, "imitation", 60},
    {"load-balancing", 2000, "combined", 60},
    {"network-routing", 1500, "exploration", 60},
    {"asymmetric", 900, "imitation", 60},
    {"multicommodity", 900, "imitation", 60},
};

sweep::DynamicsConfig family_dynamics(std::int64_t rounds) {
  sweep::DynamicsConfig dynamics;
  dynamics.max_rounds = rounds;
  dynamics.stop = sweep::StopRule::kNash;
  dynamics.check_interval = 3;
  return dynamics;
}

/// One trial of `instance` replayed on the oracle's reference loops with
/// the context-free stop predicates: the registry's uniform-random start
/// and kNash stop rule (the ones family_dynamics and the default `start`
/// select), then the TrialOutcome fields the scenario layer reports.
sweep::TrialOutcome reference_trial(const sweep::ScenarioInstance& instance,
                                    const sweep::ProtocolSpec& spec,
                                    const sweep::DynamicsConfig& dynamics,
                                    Rng& rng) {
  EXPECT_EQ(dynamics.stop, sweep::StopRule::kNash);
  sweep::TrialOutcome out;
  if (const CongestionGame* game = instance.congestion_game()) {
    State x = State::uniform_random(*game, rng);
    const auto protocol = sweep::build_protocol(spec);
    EngineInvocation call;
    call.options.max_rounds = dynamics.max_rounds;
    call.options.check_interval = dynamics.check_interval;
    call.options.mode = dynamics.mode;
    call.stop = [](const CongestionGame& g, const State& s, std::int64_t) {
      return is_nash(g, s);
    };
    const RunResult rr =
        oracle::run_dynamics_reference(*game, x, *protocol, rng, call);
    out.rounds = static_cast<double>(rr.rounds);
    out.converged = rr.converged;
    out.movers = rr.total_movers;
    out.potential = game->potential(x);
    out.social_cost = social_cost(*game, x);
    return out;
  }
  const AsymmetricGame* game = instance.asymmetric_game();
  if (game == nullptr) {
    ADD_FAILURE() << "family has no round engine";
    return out;
  }
  AsymmetricState x = AsymmetricState::uniform_random(*game, rng);
  AsymmetricImitationParams params;
  params.lambda = spec.lambda;
  params.nu_cutoff = spec.nu_cutoff;
  params.damping = spec.damping;
  const oracle::AsymmetricReferenceRun run = oracle::run_asymmetric_reference(
      *game, x, params, rng, dynamics.max_rounds, dynamics.check_interval,
      /*nash=*/true);
  out.rounds = static_cast<double>(run.rounds);
  out.converged = run.converged;
  out.movers = run.movers;
  out.potential = game->potential(x);
  double cost = 0.0;
  for (std::int32_t c = 0; c < game->num_classes(); ++c) {
    cost += game->class_average_latency(x, c) *
            static_cast<double>(game->player_class(c).num_players);
  }
  out.social_cost = cost;
  return out;
}

TEST(EngineOracle, ScenarioFamiliesMatchReferenceLoops) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.scenario);
    sweep::ScenarioSpec spec;
    spec.name = c.scenario;
    const auto instance = sweep::make_scenario(spec, c.n);
    const auto protocol = sweep::parse_protocol_spec(c.protocol);
    const std::uint64_t seed = 4321;

    Rng batched_rng(seed);
    const sweep::TrialOutcome batched = instance->run_trial(
        protocol, family_dynamics(c.rounds), batched_rng);
    Rng reference_rng(seed);
    const sweep::TrialOutcome reference = reference_trial(
        *instance, protocol, family_dynamics(c.rounds), reference_rng);
    EXPECT_EQ(batched, reference);
    EXPECT_EQ(batched_rng.state(), reference_rng.state());
  }
}

TEST(EngineOracle, RowThreadsByteIdenticalTrials) {
  // DynamicsConfig::row_threads ∈ {1, 2, 4} must be invisible in every
  // outcome field and in the RNG stream, for the symmetric families AND
  // the asymmetric class-local kernel.
  for (const char* scenario :
       {"network-routing", "singleton-uniform", "asymmetric",
        "multicommodity"}) {
    SCOPED_TRACE(scenario);
    sweep::ScenarioSpec spec;
    spec.name = scenario;
    const auto instance = sweep::make_scenario(spec, 1200);
    const auto protocol = sweep::parse_protocol_spec("imitation");
    sweep::TrialOutcome first;
    std::array<std::uint64_t, 4> first_rng{};
    for (const int row_threads : {1, 2, 4}) {
      sweep::DynamicsConfig dynamics = family_dynamics(50);
      dynamics.row_threads = row_threads;
      Rng rng(77);
      const sweep::TrialOutcome outcome =
          instance->run_trial(protocol, dynamics, rng);
      if (row_threads == 1) {
        first = outcome;
        first_rng = rng.state();
        continue;
      }
      EXPECT_EQ(outcome, first) << "row_threads=" << row_threads;
      EXPECT_EQ(rng.state(), first_rng) << "row_threads=" << row_threads;
    }
  }
}

TEST(EngineOracle, RowThreadsByteIdenticalRunsBothModes) {
  // Direct run_dynamics invariance for both engine modes (the per-player
  // engine threads its row fills too).
  const auto game = network_game_k8(2000);
  const CombinedProtocol protocol{ImitationParams{}, ExplorationParams{},
                                  0.5};
  for (EngineMode mode : {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    EngineInvocation call;
    call.options.max_rounds = mode == EngineMode::kAggregate ? 60 : 25;
    call.options.mode = mode;
    std::optional<State> first_x;
    std::array<std::uint64_t, 4> first_rng{};
    for (const int row_threads : {1, 2, 4}) {
      call.options.row_threads = row_threads;
      Rng rng(5);
      State x = State::uniform_random(game, rng);
      run_dynamics(game, x, protocol, rng, call);
      if (!first_x.has_value()) {
        first_x.emplace(std::move(x));
        first_rng = rng.state();
        continue;
      }
      EXPECT_TRUE(x == *first_x) << "row_threads=" << row_threads;
      EXPECT_EQ(rng.state(), first_rng) << "row_threads=" << row_threads;
    }
  }
}

TEST(EngineOracle, AsymmetricCheckpointKillResumeMatchesReferenceRun) {
  // Asymmetric persistence-level interchange: a BATCHED-kernel trial of
  // each asymmetric family checkpointed at round 9, killed, and resumed
  // must bitwise-match the uninterrupted trial on the per-pair reference
  // loop — asymmetric snapshots carry no trace of which kernel wrote them.
  for (const char* scenario : {"asymmetric", "multicommodity"}) {
    SCOPED_TRACE(scenario);
    sweep::ScenarioSpec spec;
    spec.name = scenario;
    const auto instance = sweep::make_scenario(spec, 900);
    const auto protocol = sweep::parse_protocol_spec("imitation");
    const std::uint64_t seed = 88;
    const std::int64_t total_rounds = 60;

    Rng reference_rng(seed);
    const sweep::TrialOutcome reference = reference_trial(
        *instance, protocol, family_dynamics(total_rounds), reference_rng);

    const std::string snap = ::testing::TempDir() + "/oracle_asym_" +
                             std::string(scenario) + ".snap";
    Rng killed_rng(seed);
    instance->run_trial_checkpointed(protocol, family_dynamics(9),
                                     killed_rng,
                                     sweep::TrialCheckpoint{snap, 0});
    const sweep::TrialOutcome resumed = instance->resume_trial(
        protocol, family_dynamics(total_rounds), snap);
    EXPECT_EQ(resumed, reference);
    EXPECT_GT(reference.rounds, 9.0);  // the resumed leg did real work
    std::remove(snap.c_str());
  }
}

TEST(EngineOracle, BatchedCheckpointKillResumeMatchesReferenceRun) {
  // Persistence-level interchange: a batched trial checkpointed at round 9,
  // killed, and resumed (all on the batched kernel) must bitwise-match the
  // uninterrupted trial on the per-pair reference loop — checkpoints carry
  // no trace of which kernel wrote them.
  sweep::ScenarioSpec spec;
  spec.name = "network-routing";
  const auto instance = sweep::make_scenario(spec, 1500);
  const auto protocol = sweep::parse_protocol_spec("combined");
  const std::uint64_t seed = 99;
  const std::int64_t total_rounds = 60;

  Rng reference_rng(seed);
  const sweep::TrialOutcome reference = reference_trial(
      *instance, protocol, family_dynamics(total_rounds), reference_rng);

  const std::string snap =
      ::testing::TempDir() + "/oracle_kill_resume.snap";
  Rng killed_rng(seed);
  instance->run_trial_checkpointed(protocol, family_dynamics(9),
                                   killed_rng,
                                   sweep::TrialCheckpoint{snap, 0});
  const sweep::TrialOutcome resumed = instance->resume_trial(
      protocol, family_dynamics(total_rounds), snap);
  EXPECT_EQ(resumed, reference);
  EXPECT_GT(reference.rounds, 9.0);  // the resumed leg did real work
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace cid
