// Test-only per-pair oracle for the protocol formulas and the round
// engines. The library writes each protocol's formula once, as its kernel
// row body (protocols/kernel.hpp, dynamics/asymmetric_engine.hpp); this
// header keeps the per-pair versions those row bodies were derived from,
// verbatim, so the tests can hold every row, round and run bitwise equal
// to them:
//
//   * move_probability / acceptance_probability for the three symmetric
//     protocols, as free functions over the protocols' public params();
//   * OracleKernel — a ProtocolKernel whose fill_row is the per-pair loop,
//     so the production round templates can run on the per-pair formulas;
//   * draw_round_reference — an uncached round: one per-pair call for every
//     (origin, destination), no latency cache, no pruning;
//   * run_dynamics_reference — the reference run loop: a fresh latency
//     context for every cached stop check, context-free predicates as they
//     are, and a plain x.apply;
//   * asymmetric_move_probability, draw_asymmetric_round_reference,
//     step_asymmetric_round and run_asymmetric_reference — the same for
//     class-local imitation on asymmetric games.
//
// Do not optimise this file: its value is that it is the old code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamics/asymmetric_engine.hpp"
#include "dynamics/engine.hpp"
#include "dynamics/engine_kernel.hpp"
#include "game/asymmetric.hpp"
#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"
#include "protocols/combined.hpp"
#include "protocols/exploration.hpp"
#include "protocols/imitation.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid::oracle {

// ---- Imitation (paper §2.3, Protocol 1) --------------------------------------

inline double effective_nu(const ImitationParams& params,
                           const CongestionGame& game) {
  if (!params.nu_cutoff) return 0.0;
  return params.nu_override.value_or(game.nu());
}

inline double effective_d(const ImitationParams& params,
                          const CongestionGame& game) {
  if (!params.damping) return 1.0;
  return params.elasticity_override.value_or(game.elasticity());
}

/// The acceptance probability μ_PQ alone (second stage of Protocol 1).
inline double acceptance_probability(const ImitationProtocol& protocol,
                                     const CongestionGame& game,
                                     const State& x, StrategyId from,
                                     StrategyId to) {
  const ImitationParams& params = protocol.params();
  CID_ENSURE(from != to, "acceptance probability needs distinct strategies");
  const double l_from = game.strategy_latency(x, from);
  const double l_to = game.expost_latency(x, from, to);
  // Gain test: strict improvement by more than ν. With nu_cutoff disabled
  // this degenerates to strict improvement (Theorem 9 regime).
  if (!(l_from > l_to + effective_nu(params, game))) return 0.0;
  const double mu =
      (params.lambda / effective_d(params, game)) * (l_from - l_to) / l_from;
  // μ < λ/d ≤ 1 whenever ℓ_Q(..) > 0, which holds for positive-latency
  // games; clamp defensively for degenerate user-supplied functions.
  return std::clamp(mu, 0.0, 1.0);
}

/// Marginal probability that a single player currently on `from` migrates
/// to `to` (!= from) this round, given the full pre-round state.
inline double move_probability(const ImitationProtocol& protocol,
                               const CongestionGame& game, const State& x,
                               StrategyId from, StrategyId to) {
  const ImitationParams& params = protocol.params();
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  const std::int64_t v = params.virtual_agents;
  const std::int64_t targets = x.count(to) + v;
  if (targets == 0) return 0.0;  // imitation cannot discover unused paths
  const std::int64_t pool =
      game.num_players() + v * game.num_strategies() -
      (params.convention == SamplingConvention::kExcludeSelf ? 1 : 0);
  const double sample_prob =
      static_cast<double>(targets) / static_cast<double>(pool);
  if (sample_prob == 0.0) return 0.0;
  return sample_prob * acceptance_probability(protocol, game, x, from, to);
}

// ---- Exploration (paper §6, Protocol 2) --------------------------------------

inline double acceptance_probability(const ExplorationProtocol& protocol,
                                     const CongestionGame& game,
                                     const State& x, StrategyId from,
                                     StrategyId to) {
  const ExplorationParams& params = protocol.params();
  CID_ENSURE(from != to, "acceptance probability needs distinct strategies");
  const double l_from = game.strategy_latency(x, from);
  const double l_to = game.expost_latency(x, from, to);
  if (!(l_from > l_to)) return 0.0;  // any strict improvement qualifies
  const double beta = params.beta_override.value_or(game.beta_slope());
  const double lmin =
      params.lmin_override.value_or(game.min_nonempty_latency());
  const double num_strategies = static_cast<double>(game.num_strategies());
  const double n = static_cast<double>(game.num_players());
  const double damping = std::min(1.0, num_strategies * lmin / (beta * n));
  const double mu = params.lambda * damping * (l_from - l_to) / l_from;
  return std::clamp(mu, 0.0, 1.0);
}

inline double move_probability(const ExplorationProtocol& protocol,
                               const CongestionGame& game, const State& x,
                               StrategyId from, StrategyId to) {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  const double sample_prob =
      1.0 / static_cast<double>(game.num_strategies());
  return sample_prob * acceptance_probability(protocol, game, x, from, to);
}

// ---- Combined (paper §6, final paragraph) ------------------------------------

inline double move_probability(const CombinedProtocol& protocol,
                               const CongestionGame& game, const State& x,
                               StrategyId from, StrategyId to) {
  // The coin flip happens before either sub-protocol's sampling stage, so
  // the marginal law is the convex combination of the two marginals.
  const double p_explore = protocol.p_explore();
  return p_explore *
             move_probability(protocol.exploration(), game, x, from, to) +
         (1.0 - p_explore) *
             move_probability(protocol.imitation(), game, x, from, to);
}

/// Per-pair formula of any of the three paper protocols, by dynamic type.
inline double move_probability(const Protocol& protocol,
                               const CongestionGame& game, const State& x,
                               StrategyId from, StrategyId to) {
  if (const auto* imitation =
          dynamic_cast<const ImitationProtocol*>(&protocol)) {
    return move_probability(*imitation, game, x, from, to);
  }
  if (const auto* exploration =
          dynamic_cast<const ExplorationProtocol*>(&protocol)) {
    return move_probability(*exploration, game, x, from, to);
  }
  if (const auto* combined = dynamic_cast<const CombinedProtocol*>(&protocol)) {
    return move_probability(*combined, game, x, from, to);
  }
  throw invariant_violation("oracle: no per-pair formula for protocol '" +
                            protocol.name() + "'");
}

/// The per-pair formulas as a ProtocolKernel: fill_row is the per-pair loop
/// itself (no latency cache), and no row is ever pruned. Runs through the
/// production round templates (draw_round<K>, run_dynamics<K>).
class OracleKernel {
 public:
  explicit OracleKernel(const Protocol& protocol) noexcept
      : protocol_(&protocol) {}

  void fill_row(const CongestionGame& game, const LatencyContext& ctx,
                StrategyId from, std::span<double> out) const {
    CID_DCHECK(out.size() == static_cast<std::size_t>(game.num_strategies()),
               "probability row must span every strategy");
    const State& x = ctx.state();
    const auto k = game.num_strategies();
    for (StrategyId to = 0; to < k; ++to) {
      out[static_cast<std::size_t>(to)] =
          to == from ? 0.0 : move_probability(*protocol_, game, x, from, to);
    }
  }
  bool row_provably_zero(const CongestionGame& /*game*/,
                         const LatencyContext& /*ctx*/, StrategyId /*from*/,
                         const RowBounds& /*bounds*/) const {
    return false;
  }
  std::string name() const { return protocol_->name(); }

 private:
  const Protocol* protocol_;
};

static_assert(ProtocolKernel<OracleKernel>);

// ---- Uncached per-pair round -------------------------------------------------

namespace detail {

/// Move probabilities out of `from` toward every strategy (the entry for
/// `from` itself is 0), one move_probability oracle call per pair.
inline std::vector<double> outgoing_probabilities_reference(
    const CongestionGame& game, const State& x, const Protocol& protocol,
    StrategyId from) {
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::vector<double> probs(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    if (static_cast<StrategyId>(j) == from) continue;
    probs[j] =
        move_probability(protocol, game, x, from, static_cast<StrategyId>(j));
  }
  engine_detail::dcheck_row(probs, from);
  return probs;
}

inline RoundResult draw_reference_aggregate(
    const CongestionGame& game, const State& x, const Protocol& protocol,
    Rng& rng, const std::vector<StrategyId>& support) {
  RoundResult result;
  for (StrategyId from : support) {
    const auto probs =
        outgoing_probabilities_reference(game, x, protocol, from);
    const auto counts = rng.multinomial(x.count(from), probs);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] == 0) continue;
      result.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), counts[j]});
      result.movers += counts[j];
    }
  }
  return result;
}

inline RoundResult draw_reference_per_player(
    const CongestionGame& game, const State& x, const Protocol& protocol,
    Rng& rng, const std::vector<StrategyId>& support) {
  // Accumulate per-(from,to) counts; the per-player draws are i.i.d. given
  // x, so aggregation loses nothing. Destinations are located by LINEAR
  // scan over the same cumulative row the batched kernel binary-searches —
  // identical boundaries, identical single uniform per player.
  RoundResult result;
  std::vector<double> cumulative;
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::vector<std::int64_t> tally(k, 0);
  for (StrategyId from : support) {
    const auto probs =
        outgoing_probabilities_reference(game, x, protocol, from);
    engine_detail::build_cumulative(probs, cumulative);
    std::fill(tally.begin(), tally.end(), std::int64_t{0});
    const std::int64_t cohort = x.count(from);
    for (std::int64_t player = 0; player < cohort; ++player) {
      const double u = rng.uniform();
      for (std::size_t j = 0; j < k; ++j) {
        if (u < cumulative[j]) {
          ++tally[j];
          break;
        }
      }
      // Falling through every bucket = the player stays on `from`.
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (tally[j] == 0) continue;
      result.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), tally[j]});
      result.movers += tally[j];
    }
  }
  return result;
}

}  // namespace detail

/// PER-PAIR REFERENCE ROUND: drives every pair through move_probability
/// with no caching. Consumes the RNG stream identically to draw_round and
/// must produce bitwise-identical results.
inline RoundResult draw_round_reference(const CongestionGame& game,
                                        const State& x,
                                        const Protocol& protocol, Rng& rng,
                                        EngineMode mode) {
  const auto support = x.support();
  switch (mode) {
    case EngineMode::kAggregate:
      return detail::draw_reference_aggregate(game, x, protocol, rng,
                                              support);
    case EngineMode::kPerPlayer:
      return detail::draw_reference_per_player(game, x, protocol, rng,
                                               support);
  }
  CID_ENSURE(false, "unreachable engine mode");
  return {};
}

/// REFERENCE RUN LOOP: run_dynamics with every round drawn by
/// draw_round_reference and applied by a plain x.apply. A cached stop
/// predicate gets a freshly rebuilt context per check, so the loop holds
/// no incremental-cache state. No metering: latency_evals stays 0.
inline RunResult run_dynamics_reference(const CongestionGame& game, State& x,
                                        const Protocol& protocol, Rng& rng,
                                        const EngineInvocation& call) {
  const RunOptions& options = call.options;
  CID_ENSURE(options.max_rounds >= 0, "max_rounds must be >= 0");
  CID_ENSURE(options.check_interval >= 1, "check_interval must be >= 1");
  CID_ENSURE(options.start_round >= 0, "start_round must be >= 0");
  CID_ENSURE(!(static_cast<bool>(call.stop) &&
               static_cast<bool>(call.cached_stop)),
             "EngineInvocation: at most one stop predicate may be set");
  RunResult result;
  result.rounds = options.start_round;
  LatencyContext reference_ctx;
  const bool has_stop = static_cast<bool>(call.stop) ||
                        static_cast<bool>(call.cached_stop);
  const auto stop_now = [&](std::int64_t round) -> bool {
    if (static_cast<bool>(call.cached_stop)) {
      reference_ctx.reset(game, x);
      return call.cached_stop(reference_ctx, round);
    }
    return call.stop(game, x, round);
  };
  for (std::int64_t round = options.start_round; round < options.max_rounds;
       ++round) {
    if (has_stop && round % options.check_interval == 0 && stop_now(round)) {
      result.converged = true;
      break;
    }
    const RoundResult rr =
        draw_round_reference(game, x, protocol, rng, options.mode);
    if (call.observer) call.observer(game, x, rr.moves, round, false);
    x.apply(game, rr.moves);
    result.total_movers += rr.movers;
    ++result.rounds;
  }
  if (!result.converged && has_stop && stop_now(result.rounds)) {
    result.converged = true;
  }
  if (call.observer) call.observer(game, x, {}, result.rounds, true);
  return result;
}

// ---- Class-local imitation on asymmetric games -------------------------------

/// Marginal probability that one class-c player on `from` migrates to `to`
/// this round: samples one of the other players *of its own class*
/// uniformly, then accepts with Protocol 1's μ.
inline double asymmetric_move_probability(
    const AsymmetricGame& game, const AsymmetricState& x,
    const AsymmetricImitationParams& params, std::int32_t c, StrategyId from,
    StrategyId to) {
  CID_ENSURE(from != to, "move probability needs distinct strategies");
  CID_ENSURE(params.lambda > 0.0 && params.lambda <= 1.0,
             "lambda must be in (0, 1]");
  const PlayerClass& cls = game.player_class(c);
  if (cls.num_players < 2) return 0.0;  // nobody to sample
  const std::int64_t targets = x.count(c, to);
  if (targets == 0) return 0.0;
  const double l_from = game.strategy_latency(x, c, from);
  const double l_to = game.expost_latency(x, c, from, to);
  const double nu = params.nu_cutoff ? game.nu() : 0.0;
  if (!(l_from > l_to + nu)) return 0.0;
  const double d = params.damping ? game.elasticity() : 1.0;
  const double mu =
      std::clamp(params.lambda / d * (l_from - l_to) / l_from, 0.0, 1.0);
  const double sample = static_cast<double>(targets) /
                        static_cast<double>(cls.num_players - 1);
  return sample * mu;
}

/// PER-PAIR REFERENCE ROUND (asymmetric): draws one concurrent round
/// (without applying it) through asymmetric_move_probability, one uncached
/// call per (class, origin, destination) triple.
inline AsymmetricRoundResult draw_asymmetric_round_reference(
    const AsymmetricGame& game, const AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng) {
  AsymmetricRoundResult result;
  for (std::int32_t c = 0; c < game.num_classes(); ++c) {
    const auto support = x.support(c);
    for (StrategyId from : support) {
      std::vector<double> probs(support.size(), 0.0);
      for (std::size_t j = 0; j < support.size(); ++j) {
        if (support[j] == from) continue;
        probs[j] = asymmetric_move_probability(game, x, params, c, from,
                                               support[j]);
      }
      const auto counts = rng.multinomial(x.count(c, from), probs);
      for (std::size_t j = 0; j < support.size(); ++j) {
        if (counts[j] == 0) continue;
        result.moves.push_back(
            ClassMigration{c, from, support[j], counts[j]});
        result.movers += counts[j];
      }
    }
  }
  return result;
}

/// One concurrent round (aggregate engine, reference path), drawn against
/// the pre-round state and applied atomically.
inline AsymmetricRoundResult step_asymmetric_round(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng) {
  AsymmetricRoundResult result =
      draw_asymmetric_round_reference(game, x, params, rng);
  x.apply(game, result.moves);
  return result;
}

struct AsymmetricReferenceRun {
  std::int64_t rounds = 0;
  bool converged = false;
  std::int64_t movers = 0;
};

/// REFERENCE RUN LOOP (asymmetric): the asymmetric scenarios' trial loop on
/// the per-pair rounds and the context-free class-wise predicates — nash
/// selects is_asymmetric_nash, otherwise class-wise ν-imitation stability.
/// The observer sees every pre-round state with its moves, then the final
/// state with final = true.
inline AsymmetricReferenceRun run_asymmetric_reference(
    const AsymmetricGame& game, AsymmetricState& x,
    const AsymmetricImitationParams& params, Rng& rng,
    std::int64_t max_rounds, std::int64_t check_interval, bool nash,
    const AsymmetricRoundObserver& observer = nullptr) {
  const auto stopped = [&] {
    return nash ? is_asymmetric_nash(game, x)
                : is_asymmetric_imitation_stable(game, x, game.nu());
  };
  AsymmetricReferenceRun run;
  for (; run.rounds < max_rounds; ++run.rounds) {
    if (run.rounds % check_interval == 0 && stopped()) {
      run.converged = true;
      break;
    }
    const AsymmetricRoundResult rr =
        draw_asymmetric_round_reference(game, x, params, rng);
    if (observer) observer(game, x, rr.moves, run.rounds, false);
    x.apply(game, rr.moves);
    run.movers += rr.movers;
  }
  if (!run.converged && stopped()) run.converged = true;
  if (observer) observer(game, x, {}, run.rounds, true);
  return run;
}

}  // namespace cid::oracle
