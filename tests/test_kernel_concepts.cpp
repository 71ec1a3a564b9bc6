// ProtocolKernel / LatencyKernel concept suite.
//
// The engine redesign (protocols/kernel.hpp, dynamics/engine_kernel.hpp,
// latency/kernel.hpp) must be invisible at the bit level. This suite pins:
//
//   1. concept level — every paper protocol's kernel (and the test-only
//      per-pair OracleKernel) models ProtocolKernel, and the Protocol
//      handles do NOT — the concept really separates the two interfaces;
//      LatencyTable models LatencyKernel; the asymmetric imitation kernel
//      models AsymmetricProtocolKernel;
//   2. dispatch level — dispatch_protocol_kernel resolves each concrete
//      protocol to its monomorphized kernel and rejects an unrecognized
//      protocol with an error naming it;
//   3. latency level — LatencyTable::value reproduces every registered
//      latency-function shape (constant, linear, affine, monomial,
//      polynomial, scaled, and the opaque exponential fallback) bitwise at
//      the integer loads the engines evaluate;
//   4. row level — each monomorphized kernel's fill_row (one row body,
//      over the singleton select and over the per-origin network ex-post
//      table) is bitwise-identical to the per-pair oracle row
//      (tests/protocol_oracle.hpp), sustained across incremental cache
//      refreshes, every parameter variant, games of different size on one
//      thread, and concurrent fills under row_threads > 1;
//   5. round/run level — the templated draw_round<K> / run_dynamics<K>
//      over the monomorphized kernel, the same templates over the
//      OracleKernel, the type-erased Protocol frontend, and the per-pair
//      reference round all produce identical Migration lists AND consume
//      the RNG stream identically, including under row_threads ∈ {1,2,4};
//   6. API level — EngineInvocation rejects two stop predicates.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "game/builders.hpp"
#include "game/latency_context.hpp"
#include "latency/kernel.hpp"
#include "latency/latency.hpp"
#include "protocol_oracle.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace cid {
namespace {

// ---- 1. Concept membership --------------------------------------------------

static_assert(ProtocolKernel<ImitationKernel>);
static_assert(ProtocolKernel<ExplorationKernel>);
static_assert(ProtocolKernel<CombinedKernel>);
static_assert(ProtocolKernel<oracle::OracleKernel>);
// The Protocol handles expose no fill_row: the concept genuinely separates
// the two interfaces instead of accepting anything protocol-shaped.
static_assert(!ProtocolKernel<ImitationProtocol>);
static_assert(!ProtocolKernel<ExplorationProtocol>);
static_assert(!ProtocolKernel<CombinedProtocol>);

static_assert(LatencyKernel<LatencyTable>);
// LatencyFunction::value takes one argument (no resource index) — not a
// table.
static_assert(!LatencyKernel<LatencyFunction>);

static_assert(AsymmetricProtocolKernel<AsymmetricImitationKernel>);
static_assert(!AsymmetricProtocolKernel<ImitationKernel>);

// ---- 2. Kernel dispatch -----------------------------------------------------

template <typename Expected>
bool dispatches_to(const Protocol& protocol) {
  return dispatch_protocol_kernel(protocol, [](const auto& kernel) {
    return std::is_same_v<std::decay_t<decltype(kernel)>, Expected>;
  });
}

TEST(KernelDispatch, ConcreteProtocolsGetMonomorphizedKernels) {
  const ImitationProtocol imitation;
  const ExplorationProtocol exploration;
  const CombinedProtocol combined{ImitationParams{}, ExplorationParams{},
                                  0.5};
  EXPECT_TRUE(dispatches_to<ImitationKernel>(imitation));
  EXPECT_TRUE(dispatches_to<ExplorationKernel>(exploration));
  EXPECT_TRUE(dispatches_to<CombinedKernel>(combined));
  EXPECT_EQ(ImitationKernel(imitation).name(), imitation.name());
}

TEST(KernelDispatch, UnrecognizedProtocolFailsNamingIt) {
  // A Protocol subclass the dispatch chain has no kernel for cannot run:
  // the engine entrypoints reject it with an error naming the protocol.
  class OpaqueProtocol final : public Protocol {
   public:
    std::string name() const override { return "opaque"; }
  };
  const OpaqueProtocol opaque;
  const auto game = make_monomial_fan_game(8, 1.0, 1.0, 500);
  Rng rng(3);
  const State x = State::uniform_random(game, rng);
  try {
    draw_round(game, x, opaque, rng, EngineMode::kAggregate);
    FAIL() << "dispatch accepted a protocol without a kernel";
  } catch (const invariant_violation& e) {
    EXPECT_NE(std::string(e.what()).find("'opaque'"), std::string::npos)
        << e.what();
  }
}

// ---- 3. LatencyTable vs virtual latency functions ---------------------------

TEST(LatencyTableKernel, BitwiseMatchesEveryFunctionShape) {
  // One of each registered shape, including nesting that exercises the
  // ScaledLatency divisor and the opaque virtual fallback.
  std::vector<LatencyPtr> fns;
  fns.push_back(make_constant(2.5));
  fns.push_back(make_linear(1.5));
  fns.push_back(make_affine(0.5, 2.0));
  fns.push_back(make_monomial(0.7, 2.0));
  fns.push_back(make_monomial(3.0, 0.0));  // degree-0 monomial special case
  fns.push_back(make_polynomial({1.0, 0.0, 3.0, 0.5}));
  fns.push_back(make_polynomial({4.0}));
  fns.push_back(make_scaled(make_monomial(0.9, 3.0), 50));
  fns.push_back(make_scaled(make_polynomial({0.0, 2.0, 1.0}), 10));
  fns.push_back(make_exponential(1.1, 0.2));  // opaque fallback entry

  LatencyTable table;
  table.reserve(fns.size());
  for (const auto& fn : fns) table.add(*fn);
  ASSERT_EQ(table.size(), fns.size());

  for (std::size_t e = 0; e < fns.size(); ++e) {
    SCOPED_TRACE("entry " + std::to_string(e));
    for (std::int64_t load = 0; load <= 200; ++load) {
      const double x = static_cast<double>(load);
      // Bitwise: EXPECT_EQ on doubles, never EXPECT_NEAR.
      ASSERT_EQ(table.value(e, x), fns[e]->value(x)) << "load " << load;
    }
  }
}

TEST(LatencyTableKernel, ClearAllowsRebuildAgainstAnotherGame) {
  LatencyTable table;
  const auto poly = make_polynomial({1.0, 2.0, 3.0});
  table.add(*poly);
  EXPECT_EQ(table.size(), 1u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  const auto mono = make_monomial(2.0, 2.0);
  table.add(*mono);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.value(0, 7.0), mono->value(7.0));
}

// ---- 4. Row-level kernel identity -------------------------------------------

CongestionGame network_game_k8(std::int64_t n) {
  const auto net = make_layered_network(2, 3);
  Rng latency_rng(11);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(make_monomial(0.5 + latency_rng.uniform(),
                                latency_rng.bernoulli(0.5) ? 1.0 : 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

template <typename KernelT, typename ProtocolT>
void expect_rows_match_protocol(const CongestionGame& game,
                                const ProtocolT& protocol) {
  const KernelT kernel(protocol);
  const oracle::OracleKernel per_pair(protocol);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(41);
  State x = State::uniform_random(game, rng);
  RoundWorkspace ws;
  RoundResult rr;
  LatencyContext ctx;
  ctx.reset(game, x);
  ApplyScratch scratch;
  std::vector<double> kernel_row(k);
  std::vector<double> oracle_row(k);
  for (int round = 0; round < 20; ++round) {
    const RowBounds bounds = compute_row_bounds(game, x, ctx);
    for (StrategyId from = 0; from < game.num_strategies(); ++from) {
      kernel.fill_row(game, ctx, from, kernel_row);
      per_pair.fill_row(game, ctx, from, oracle_row);
      // The zero proof is sound only if the oracle row it skips is zero.
      const bool proved_zero =
          x.count(from) > 0 &&
          kernel.row_provably_zero(game, ctx, from, bounds);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(kernel_row[to], oracle_row[to])
            << "round " << round << " pair " << from << "->" << to;
        if (proved_zero) {
          ASSERT_EQ(oracle_row[to], 0.0)
              << "round " << round << " pruned origin " << from;
        }
      }
    }
    // Mutate through a real draw so later iterations audit refreshed
    // cache entries (and, on singleton games, the SIMD select loop over
    // non-initial ell/ell_plus values).
    draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr);
    x.apply(game, rr.moves, scratch);
    ctx.refresh(scratch.touched);
    ws.ctx.refresh(scratch.touched);
  }
}

TEST(KernelRows, SingletonRowsMatchOracleRows) {
  // Singleton game: drives the singleton ex-post select loops.
  const auto game = make_monomial_fan_game(16, 1.0, 2.0, 4000);
  ImitationParams virtual_params;
  virtual_params.virtual_agents = 2;
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ImitationKernel>(
      game, ImitationProtocol(virtual_params));
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

TEST(KernelRows, ZeroProofCountsEmptyStrategiesUnderVirtualAgents) {
  // x = (5, 5, 0) on linear links: ℓ_P = 5 on the support, and the empty
  // link's ex-post latency is 1. Virtual agents make that link reachable,
  // so the rows out of the support are not zero and must not be proved
  // zero by a floor taken over the support alone. Exploration's rows reach
  // it too.
  const auto game = make_uniform_links_game(3, make_linear(1.0), 10);
  const State x(game, {5, 5, 0});
  LatencyContext ctx;
  ctx.reset(game, x);
  const RowBounds bounds = compute_row_bounds(game, x, ctx);
  ASSERT_TRUE(bounds.plus_dominates);
  ImitationParams params;
  params.virtual_agents = 1;
  params.nu_cutoff = false;
  const ImitationProtocol imitation(params);
  const CombinedProtocol combined{params, ExplorationParams{}, 0.5};
  const ExplorationProtocol exploration;
  std::vector<double> row(3);
  for (StrategyId from = 0; from < 2; ++from) {
    oracle::OracleKernel(imitation).fill_row(game, ctx, from, row);
    ASSERT_GT(row[2], 0.0);
    EXPECT_FALSE(
        ImitationKernel(imitation).row_provably_zero(game, ctx, from, bounds));
    EXPECT_FALSE(
        CombinedKernel(combined).row_provably_zero(game, ctx, from, bounds));
    // Exploration samples every strategy, virtual agents or not.
    EXPECT_FALSE(ExplorationKernel(exploration)
                     .row_provably_zero(game, ctx, from, bounds));
  }
  // Without virtual agents the empty link is out of reach, the support is
  // balanced, and both rows are provably zero.
  params.virtual_agents = 0;
  const ImitationProtocol plain(params);
  for (StrategyId from = 0; from < 2; ++from) {
    EXPECT_TRUE(
        ImitationKernel(plain).row_provably_zero(game, ctx, from, bounds));
  }
}

TEST(KernelRows, NetworkTableRowsMatchOracleRowsBitwise) {
  const auto game = network_game_k8(1500);
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game,
      CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

CongestionGame network_game_k64(std::int64_t n) {
  // 4^3 = 64 s-t paths over 40 edges: the bench_engine_micro cells 1/2
  // and long_sim game shape.
  const auto net = make_layered_network(4, 3);
  Rng latency_rng(7);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    const double a = 0.5 + latency_rng.uniform();
    fns.push_back(latency_rng.bernoulli(0.5) ? make_linear(a)
                                             : make_monomial(0.05 * a, 2.0));
  }
  return make_network_game(net, std::move(fns), n);
}

TEST(KernelRows, NetworkRowsMatchOracleRowsForImitationParams) {
  const auto game = network_game_k8(1500);
  ImitationParams virtual_agents;
  virtual_agents.virtual_agents = 2;
  ImitationParams no_nu;
  no_nu.nu_cutoff = false;
  ImitationParams no_damping;
  no_damping.damping = false;
  // Overrides on both sides of the game's own ν and d, so a row body or
  // zero proof that reads the game's value instead gives another row.
  ImitationParams nu_below;
  nu_below.nu_override = 0.25 * game.nu();
  ImitationParams nu_above;
  nu_above.nu_override = 2.0 * game.nu();
  ImitationParams d_below;
  d_below.elasticity_override = 1.0;
  ImitationParams d_above;
  d_above.elasticity_override = 2.0 * game.elasticity();
  for (const ImitationParams& params : {virtual_agents, no_nu, no_damping,
                                        nu_below, nu_above, d_below,
                                        d_above}) {
    for (const SamplingConvention convention :
         {SamplingConvention::kExcludeSelf, SamplingConvention::kIncludeSelf}) {
      ImitationParams variant = params;
      variant.convention = convention;
      const ImitationProtocol imitation(variant);
      SCOPED_TRACE(imitation.name());
      expect_rows_match_protocol<ImitationKernel>(game, imitation);
      expect_rows_match_protocol<CombinedKernel>(
          game, CombinedProtocol{variant, ExplorationParams{}, 0.5});
    }
  }
}

TEST(KernelRows, NetworkRowsMatchOracleRowsForExplorationOverrides) {
  const auto game = network_game_k8(1500);
  ExplorationParams beta;
  beta.beta_override = 0.75;
  ExplorationParams lmin;
  lmin.lmin_override = 3.0;
  for (const ExplorationParams& params : {beta, lmin}) {
    expect_rows_match_protocol<ExplorationKernel>(game,
                                                  ExplorationProtocol(params));
    expect_rows_match_protocol<CombinedKernel>(
        game, CombinedProtocol{ImitationParams{}, params, 0.5});
  }
}

TEST(KernelRows, NetworkRowsMatchOracleRowsForEveryExploreShare) {
  const auto game = network_game_k8(1500);
  for (const double p_explore : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(p_explore);
    expect_rows_match_protocol<CombinedKernel>(
        game,
        CombinedProtocol{ImitationParams{}, ExplorationParams{}, p_explore});
  }
}

TEST(KernelRows, NetworkRowsMatchOracleRowsWithDecreasingLatency) {
  // One decreasing edge: ℓ_e(x_e+1) < ℓ_e(x_e) there, so the table mixes
  // ex-post values below the current ones and plus_dominates() is false
  // (no pruning shortcut hides a row).
  class DecreasingLatency final : public LatencyFunction {
   public:
    double value(double x) const override { return 5.0 + 400.0 / (1.0 + x); }
    std::string describe() const override { return "5+400/(1+x)"; }
  };
  const auto net = make_layered_network(2, 3);
  std::vector<LatencyPtr> fns;
  for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
    fns.push_back(e == 1 ? LatencyPtr(std::make_shared<DecreasingLatency>())
                         : make_linear(0.01 * (1 + e)));
  }
  const auto game = make_network_game(net, std::move(fns), 1500);
  {
    Rng rng(41);  // the state expect_rows_match_protocol starts from
    const State x = State::uniform_random(game, rng);
    LatencyContext ctx;
    ctx.reset(game, x);
    ASSERT_FALSE(ctx.plus_dominates());
  }
  expect_rows_match_protocol<ImitationKernel>(game, ImitationProtocol());
  expect_rows_match_protocol<ExplorationKernel>(game, ExplorationProtocol());
  expect_rows_match_protocol<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5});
}

TEST(KernelRows, OneKernelAlternatesBetweenNetworkGamesOfDifferentSize) {
  // The per-thread ex-post table is reused across rows: every switch
  // between the 2x3 and 4x3 games re-sizes it (both ways) on this thread.
  const auto small = network_game_k8(1500);
  const auto large = network_game_k64(4000);
  ASSERT_NE(small.num_resources(), large.num_resources());
  const CombinedProtocol protocol{ImitationParams{}, ExplorationParams{},
                                  0.5};
  const CombinedKernel kernel(protocol);
  const oracle::OracleKernel per_pair(protocol);
  struct Side {
    const CongestionGame* game;
    State x;
    LatencyContext ctx;
  };
  Rng rng(61);
  std::array<Side, 2> sides{Side{&small, State::uniform_random(small, rng), {}},
                            Side{&large, State::uniform_random(large, rng), {}}};
  for (Side& side : sides) side.ctx.reset(*side.game, side.x);
  std::vector<double> kernel_row;
  std::vector<double> oracle_row;
  for (int round = 0; round < 5; ++round) {
    for (StrategyId from = 0; from < large.num_strategies(); ++from) {
      for (Side& side : sides) {
        const CongestionGame& game = *side.game;
        const StrategyId origin = from % game.num_strategies();
        const auto k = static_cast<std::size_t>(game.num_strategies());
        kernel_row.assign(k, -1.0);
        oracle_row.assign(k, -2.0);
        kernel.fill_row(game, side.ctx, origin, kernel_row);
        per_pair.fill_row(game, side.ctx, origin, oracle_row);
        for (std::size_t to = 0; to < k; ++to) {
          ASSERT_EQ(kernel_row[to], oracle_row[to])
              << "m=" << game.num_resources() << " round " << round
              << " pair " << origin << "->" << to;
        }
      }
    }
    for (Side& side : sides) {
      RoundWorkspace ws;
      RoundResult rr;
      draw_round(*side.game, side.x, kernel, rng, EngineMode::kAggregate, ws,
                 rr);
      ApplyScratch scratch;
      side.x.apply(*side.game, rr.moves, scratch);
      side.ctx.refresh(scratch.touched);
    }
  }
}

template <typename KernelT, typename ProtocolT>
void expect_parallel_rows_match_protocol(const CongestionGame& game,
                                         const ProtocolT& protocol,
                                         int row_threads) {
  const KernelT kernel(protocol);
  const oracle::OracleKernel per_pair(protocol);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  Rng rng(53);
  State x = State::uniform_random(game, rng);
  RoundWorkspace ws;
  RoundResult rr;
  std::vector<double> oracle_row(k);
  for (int round = 0; round < 10; ++round) {
    engine_detail::prepare(game, x, ws);
    engine_detail::fill_rows_parallel(game, kernel, ws, /*prune=*/false,
                                      RowBounds{}, row_threads);
    for (std::size_t i = 0; i < ws.support.size(); ++i) {
      const StrategyId from = ws.support[i];
      per_pair.fill_row(game, ws.ctx, from, oracle_row);
      for (std::size_t to = 0; to < k; ++to) {
        ASSERT_EQ(ws.rows[i * k + to], oracle_row[to])
            << "round " << round << " pair " << from << "->" << to;
      }
    }
    draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr,
               row_threads);
    x.apply(game, rr.moves, ws.apply_scratch);
    ws.ctx.refresh(ws.apply_scratch.touched);
  }
}

TEST(KernelRows, NetworkRowsUnderFourRowThreadsMatchOracleRows) {
  // Four pool threads fill rows concurrently, each through its own ex-post
  // table.
  const auto game = network_game_k64(20000);
  expect_parallel_rows_match_protocol<ImitationKernel>(
      game, ImitationProtocol(), 4);
  expect_parallel_rows_match_protocol<ExplorationKernel>(
      game, ExplorationProtocol(), 4);
  expect_parallel_rows_match_protocol<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5}, 4);
}

// ---- 5. Round- and run-level identity across all four paths -----------------

template <typename KernelT, typename ProtocolT>
void expect_four_paths_identical(const CongestionGame& game,
                                 const ProtocolT& protocol, EngineMode mode,
                                 std::int64_t rounds, std::uint64_t seed) {
  const KernelT mono(protocol);
  const oracle::OracleKernel per_pair(protocol);
  // Four independent (rng, state, workspace) tuples; only the path differs.
  Rng mono_rng(seed), pair_rng(seed), front_rng(seed), oracle_rng(seed);
  State mono_x = State::uniform_random(game, mono_rng);
  State pair_x = State::uniform_random(game, pair_rng);
  State front_x = State::uniform_random(game, front_rng);
  State oracle_x = State::uniform_random(game, oracle_rng);
  RoundWorkspace mono_ws, pair_ws, front_ws;
  RoundResult mono_rr, pair_rr, front_rr;
  for (std::int64_t round = 0; round < rounds; ++round) {
    draw_round(game, mono_x, mono, mono_rng, mode, mono_ws, mono_rr);
    draw_round(game, pair_x, per_pair, pair_rng, mode, pair_ws, pair_rr);
    draw_round(game, front_x, protocol, front_rng, mode, front_ws, front_rr);
    const RoundResult reference = oracle::draw_round_reference(
        game, oracle_x, protocol, oracle_rng, mode);
    ASSERT_EQ(mono_rr.moves, pair_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, front_rr.moves) << "round " << round;
    ASSERT_EQ(mono_rr.moves, reference.moves) << "round " << round;
    ASSERT_EQ(mono_rr.movers, reference.movers) << "round " << round;
    ASSERT_EQ(mono_rng.state(), pair_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), front_rng.state()) << "round " << round;
    ASSERT_EQ(mono_rng.state(), oracle_rng.state()) << "round " << round;
    mono_x.apply(game, mono_rr.moves, mono_ws.apply_scratch);
    mono_ws.ctx.refresh(mono_ws.apply_scratch.touched);
    pair_x.apply(game, pair_rr.moves, pair_ws.apply_scratch);
    pair_ws.ctx.refresh(pair_ws.apply_scratch.touched);
    front_x.apply(game, front_rr.moves, front_ws.apply_scratch);
    front_ws.ctx.refresh(front_ws.apply_scratch.touched);
    oracle_x.apply(game, reference.moves);
    ASSERT_TRUE(mono_x == oracle_x) << "round " << round;
  }
}

TEST(KernelRounds, FourPathsIdenticalSingleton) {
  const auto game = make_monomial_fan_game(12, 1.0, 1.0, 5000);
  for (EngineMode mode :
       {EngineMode::kAggregate, EngineMode::kPerPlayer}) {
    const std::int64_t rounds = mode == EngineMode::kAggregate ? 50 : 20;
    expect_four_paths_identical<ImitationKernel>(game, ImitationProtocol(),
                                                 mode, rounds, 91);
    expect_four_paths_identical<ExplorationKernel>(
        game, ExplorationProtocol(), mode, rounds, 92);
    expect_four_paths_identical<CombinedKernel>(
        game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
        mode, rounds, 93);
  }
}

TEST(KernelRounds, FourPathsIdenticalNetwork) {
  const auto game = network_game_k8(3000);
  expect_four_paths_identical<ImitationKernel>(
      game, ImitationProtocol(), EngineMode::kAggregate, 40, 94);
  expect_four_paths_identical<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
      EngineMode::kAggregate, 40, 95);
}

TEST(KernelRounds, FourPathsIdenticalNetworkAllKernels) {
  const auto game = network_game_k8(3000);
  expect_four_paths_identical<ExplorationKernel>(
      game, ExplorationProtocol(), EngineMode::kAggregate, 40, 96);
  expect_four_paths_identical<ImitationKernel>(
      game, ImitationProtocol(), EngineMode::kPerPlayer, 20, 97);
  expect_four_paths_identical<ExplorationKernel>(
      game, ExplorationProtocol(), EngineMode::kPerPlayer, 20, 98);
  expect_four_paths_identical<CombinedKernel>(
      game, CombinedProtocol{ImitationParams{}, ExplorationParams{}, 0.5},
      EngineMode::kPerPlayer, 20, 99);
}

TEST(KernelRounds, TemplatedRowThreadsBitwiseInvariant) {
  // Direct templated-API thread invariance (the frontends are covered by
  // the oracle suite): the persistent-pool fan-out must be invisible.
  const auto game = network_game_k8(2000);
  const ImitationProtocol protocol;
  const ImitationKernel kernel(protocol);
  std::vector<State> finals;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  for (const int row_threads : {1, 2, 4}) {
    Rng rng(71);
    State x = State::uniform_random(game, rng);
    RoundWorkspace ws;
    RoundResult rr;
    for (int round = 0; round < 30; ++round) {
      draw_round(game, x, kernel, rng, EngineMode::kAggregate, ws, rr,
                 row_threads);
      x.apply(game, rr.moves, ws.apply_scratch);
      ws.ctx.refresh(ws.apply_scratch.touched);
    }
    finals.push_back(std::move(x));
    rng_states.push_back(rng.state());
  }
  EXPECT_TRUE(finals[0] == finals[1]);
  EXPECT_TRUE(finals[0] == finals[2]);
  EXPECT_EQ(rng_states[0], rng_states[1]);
  EXPECT_EQ(rng_states[0], rng_states[2]);
}

TEST(KernelRuns, TemplatedRunMatchesFrontendRun) {
  const auto game = make_monomial_fan_game(10, 2.0, 1.0, 20000);
  const ImitationProtocol protocol;
  const ImitationKernel kernel(protocol);
  EngineInvocation call;
  call.options.max_rounds = 120;

  Rng kernel_rng(13);
  State kernel_x = State::uniform_random(game, kernel_rng);
  const RunResult via_kernel =
      run_dynamics(game, kernel_x, kernel, kernel_rng, call);

  Rng front_rng(13);
  State front_x = State::uniform_random(game, front_rng);
  const RunResult via_frontend =
      run_dynamics(game, front_x, protocol, front_rng, call);

  EXPECT_EQ(via_kernel.rounds, via_frontend.rounds);
  EXPECT_EQ(via_kernel.total_movers, via_frontend.total_movers);
  EXPECT_EQ(via_kernel.latency_evals, via_frontend.latency_evals);
  EXPECT_TRUE(kernel_x == front_x);
  EXPECT_EQ(kernel_rng.state(), front_rng.state());
}

// ---- 6. EngineInvocation ----------------------------------------------------

TEST(EngineInvocationApi, RejectsTwoStopPredicates) {
  const auto game = make_monomial_fan_game(4, 1.0, 1.0, 100);
  const ImitationProtocol protocol;
  EngineInvocation call;
  call.options.max_rounds = 1;
  call.stop = [](const CongestionGame&, const State&, std::int64_t) {
    return true;
  };
  call.cached_stop = [](const LatencyContext&, std::int64_t) {
    return true;
  };
  Rng rng(1);
  State x = State::uniform_random(game, rng);
  EXPECT_THROW(run_dynamics(game, x, protocol, rng, call),
               invariant_violation);
}

}  // namespace
}  // namespace cid
