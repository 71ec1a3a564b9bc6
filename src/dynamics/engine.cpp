// Type-erased frontend over the monomorphized engines: every entrypoint
// resolves its Protocol handle to a concrete kernel once per call
// (dispatch_protocol_kernel) and forwards to the templates in
// dynamics/engine_kernel.hpp. No round logic lives here.
#include "dynamics/engine.hpp"

#include <algorithm>
#include <limits>

#include "dynamics/engine_kernel.hpp"
#include "protocols/kernel.hpp"
#include "util/assert.hpp"

namespace cid {

RowBounds compute_row_bounds(const CongestionGame& game, const State& x,
                             const LatencyContext& ctx) {
  RowBounds bounds;
  bounds.plus_dominates = ctx.plus_dominates();
  bounds.min_support_latency = std::numeric_limits<double>::infinity();
  bounds.min_latency = std::numeric_limits<double>::infinity();
  const std::span<const std::int64_t> counts = x.counts();
  const auto k = static_cast<std::size_t>(game.num_strategies());
  for (std::size_t p = 0; p < k; ++p) {
    const double lp = ctx.strategy_latency(static_cast<StrategyId>(p));
    bounds.min_latency = std::min(bounds.min_latency, lp);
    if (counts[p] > 0) {
      bounds.min_support_latency = std::min(bounds.min_support_latency, lp);
    }
  }
  return bounds;
}

void draw_round(const CongestionGame& game, const State& x,
                const Protocol& protocol, Rng& rng, EngineMode mode,
                RoundWorkspace& ws, RoundResult& out, int row_threads,
                obs::EngineMetrics* metrics, bool trace) {
  dispatch_protocol_kernel(protocol, [&](const auto& kernel) {
    draw_round(game, x, kernel, rng, mode, ws, out, row_threads, metrics,
               trace);
  });
}

RoundResult draw_round(const CongestionGame& game, const State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode) {
  RoundWorkspace ws;
  RoundResult out;
  draw_round(game, x, protocol, rng, mode, ws, out);
  return out;
}

RoundResult step_round(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode) {
  RoundResult result = draw_round(game, x, protocol, rng, mode);
  x.apply(game, result.moves);
  return result;
}

RunResult run_dynamics(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng,
                       const EngineInvocation& call) {
  return dispatch_protocol_kernel(protocol, [&](const auto& kernel) {
    return run_dynamics(game, x, kernel, rng, call);
  });
}

}  // namespace cid
