// Monomorphized round engines: the five engine phases as templates over
// the ProtocolKernel concept (protocols/kernel.hpp).
//
// This header is the engine's actual implementation; dynamics/engine.cpp
// is a thin type-erased frontend that resolves a Protocol handle to its
// concrete kernel (dispatch_protocol_kernel) and calls down here. The
// split exists so the hot path — per-origin row fills, prune checks,
// multinomial/uniform draws — compiles once per kernel type with every
// call inlined, instead of paying a virtual dispatch per row, while the
// public API in engine.hpp stays exactly as stable as the Protocol class.
//
// Templated callers (tests, benches, future engines) can use this API
// directly with any ProtocolKernel model; everything here obeys the same
// bitwise contract as the frontend: identical rows, identical RNG
// consumption, interchangeable checkpoints. tests/test_kernel_concepts.cpp
// and tests/test_engine_oracle.cpp prove it against the per-pair oracle
// in tests/protocol_oracle.hpp, whose OracleKernel also runs through these
// templates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dynamics/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "protocols/kernel.hpp"
#include "sweep/pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cid {

namespace engine_detail {

/// Debug-only row validation (the pre-batching engine ran these as hard
/// checks per pair; they are pure programming-error guards, so Release
/// compiles them out — see CID_DCHECK in util/assert.hpp). A protocol
/// violating them would silently corrupt the multinomial draw.
inline void dcheck_row([[maybe_unused]] std::span<const double> probs,
                       [[maybe_unused]] StrategyId from) {
#ifndef NDEBUG
  double total = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j) {
    CID_DCHECK(probs[j] >= 0.0 && probs[j] <= 1.0,
               "protocol returned invalid probability");
    CID_DCHECK(static_cast<StrategyId>(j) != from || probs[j] == 0.0,
               "protocol assigned probability to staying put");
    total += probs[j];
  }
  CID_DCHECK(total <= 1.0 + 1e-9,
             "protocol move probabilities exceed 1 for one player");
#endif
}

/// Debug-only audit of a pruned origin: the row the kernel claims is
/// provably zero must actually be all zeros. Release builds skip the fill
/// entirely — that is the point of pruning.
template <ProtocolKernel K>
void dcheck_pruned_row([[maybe_unused]] const CongestionGame& game,
                       [[maybe_unused]] const LatencyContext& ctx,
                       [[maybe_unused]] const K& kernel,
                       [[maybe_unused]] StrategyId from,
                       [[maybe_unused]] std::span<double> scratch) {
#ifndef NDEBUG
  kernel.fill_row(game, ctx, from, scratch);
  for (double p : scratch) {
    CID_DCHECK(p == 0.0, "row_provably_zero pruned a nonzero row");
  }
#endif
}

/// The per-player engine's cumulative row, which each player's single
/// uniform is compared against. The test-side per-pair oracle builds its
/// row with this same function, so both see identical floating-point
/// boundaries.
inline void build_cumulative(std::span<const double> probs,
                             std::vector<double>& cumulative) {
  cumulative.resize(probs.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j) {
    acc += probs[j];
    cumulative[j] = acc;
  }
}

/// Ensures the workspace buffers span the game and the cache matches x.
inline void prepare(const CongestionGame& game, const State& x,
                    RoundWorkspace& ws) {
  if (!ws.ready) {
    ws.ctx.reset(game, x);
    ws.ready = true;
  }
  const auto k = static_cast<std::size_t>(game.num_strategies());
  ws.probs.resize(k);
  ws.counts.resize(k);
  x.support(ws.support);
}

/// Parallel phase shared by both engine modes under row_threads > 1: every
/// support origin's probability row is a pure function of (game, ctx,
/// from), so the fills run concurrently into disjoint slices of ws.rows
/// (plus the per-origin prune verdict in ws.skip). The RNG phase that
/// follows is strictly serial in support order, which is what makes the
/// round bitwise invariant in the thread count.
template <ProtocolKernel K>
void fill_rows_parallel(const CongestionGame& game, const K& kernel,
                        RoundWorkspace& ws, bool prune,
                        const RowBounds& bounds, int row_threads) {
  const auto k = static_cast<std::size_t>(game.num_strategies());
  const auto s = ws.support.size();
  ws.rows.resize(s * k);
  ws.skip.assign(s, 0);
  sweep::parallel_for(
      static_cast<std::int64_t>(s), row_threads, [&](std::int64_t i) {
        const StrategyId from = ws.support[static_cast<std::size_t>(i)];
        const std::span<double> row{
            ws.rows.data() + i * static_cast<std::int64_t>(k), k};
        if (prune && kernel.row_provably_zero(game, ws.ctx, from, bounds)) {
          ws.skip[static_cast<std::size_t>(i)] = 1;
          dcheck_pruned_row(game, ws.ctx, kernel, from, row);
          return;
        }
        kernel.fill_row(game, ws.ctx, from, row);
        dcheck_row(row, from);
      });
}

template <ProtocolKernel K>
void draw_aggregate(const CongestionGame& game, const State& x,
                    const K& kernel, Rng& rng, RoundWorkspace& ws,
                    RoundResult& out, int row_threads,
                    obs::EngineMetrics* metrics, bool trace) {
  const std::span<double> probs = ws.probs;
  const std::span<std::int64_t> counts = ws.counts;
  // Support/improvement pruning: origins whose whole row is provably zero
  // are skipped outright — no row fill, no conditional binomials, and no
  // RNG consumed (Rng::multinomial draws nothing for zero categories, so
  // the stream stays bitwise identical to the unpruned path).
  const RowBounds bounds = compute_row_bounds(game, x, ws.ctx);
  const auto emit = [&](StrategyId from, std::span<const double> row) {
    rng.multinomial(x.count(from), row, counts);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      if (counts[j] == 0) continue;
      out.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), counts[j]});
      out.movers += counts[j];
    }
  };
  if (row_threads <= 1 && metrics == nullptr && !trace) {
    for (StrategyId from : ws.support) {
      if (kernel.row_provably_zero(game, ws.ctx, from, bounds)) {
        dcheck_pruned_row(game, ws.ctx, kernel, from, probs);
        continue;
      }
      kernel.fill_row(game, ws.ctx, from, probs);
      dcheck_row(probs, from);
      emit(from, probs);
    }
    return;
  }
  // Metered (or traced) serial runs take this two-phase route too:
  // parallel_for with one thread executes inline in support order, so fill
  // order, prune verdicts, and RNG consumption match the single-pass loop
  // above bitwise — the only difference is a few extra clock reads.
  {
    obs::PhaseTimer fill_timer(metrics != nullptr ? &metrics->row_fill_ns
                                                  : nullptr);
    obs::TraceSpan fill_span(trace ? "engine.row_fill" : nullptr);
    fill_rows_parallel(game, kernel, ws, /*prune=*/true, bounds, row_threads);
  }
  obs::PhaseTimer draw_timer(metrics != nullptr ? &metrics->draw_ns
                                                : nullptr);
  obs::TraceSpan draw_span(trace ? "engine.draw" : nullptr);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  std::int64_t pruned = 0;
  for (std::size_t i = 0; i < ws.support.size(); ++i) {
    if (ws.skip[i] != 0) {
      ++pruned;
      continue;
    }
    emit(ws.support[i], std::span<const double>{ws.rows.data() + i * k, k});
  }
  if (metrics != nullptr) {
    metrics->rows_pruned += pruned;
    metrics->rows_filled +=
        static_cast<std::int64_t>(ws.support.size()) - pruned;
  }
}

template <ProtocolKernel K>
void draw_per_player(const CongestionGame& game, const State& x,
                     const K& kernel, Rng& rng, RoundWorkspace& ws,
                     RoundResult& out, int row_threads,
                     obs::EngineMetrics* metrics, bool trace) {
  const std::span<double> probs = ws.probs;
  const std::span<std::int64_t> tally = ws.counts;
  // No pruning here: every player consumes one uniform whether or not its
  // row is zero, so a skipped origin would shift the RNG stream.
  const auto emit = [&](StrategyId from, std::span<const double> row) {
    build_cumulative(row, ws.cumulative);
    std::fill(tally.begin(), tally.end(), std::int64_t{0});
    const std::int64_t cohort = x.count(from);
    const auto begin = ws.cumulative.begin();
    const auto end = ws.cumulative.end();
    for (std::int64_t player = 0; player < cohort; ++player) {
      const double u = rng.uniform();
      // First bucket with u < cumulative[j] — O(log k); zero-probability
      // buckets have zero-width intervals and can never be selected.
      // Falling beyond the last boundary = the player stays on `from`.
      const auto it = std::upper_bound(begin, end, u);
      if (it != end) ++tally[static_cast<std::size_t>(it - begin)];
    }
    for (std::size_t j = 0; j < tally.size(); ++j) {
      if (tally[j] == 0) continue;
      out.moves.push_back(
          Migration{from, static_cast<StrategyId>(j), tally[j]});
      out.movers += tally[j];
    }
  };
  if (row_threads <= 1 && metrics == nullptr && !trace) {
    for (StrategyId from : ws.support) {
      kernel.fill_row(game, ws.ctx, from, probs);
      dcheck_row(probs, from);
      emit(from, probs);
    }
    return;
  }
  {
    obs::PhaseTimer fill_timer(metrics != nullptr ? &metrics->row_fill_ns
                                                  : nullptr);
    obs::TraceSpan fill_span(trace ? "engine.row_fill" : nullptr);
    fill_rows_parallel(game, kernel, ws, /*prune=*/false, RowBounds{},
                       row_threads);
  }
  obs::PhaseTimer draw_timer(metrics != nullptr ? &metrics->draw_ns
                                                : nullptr);
  obs::TraceSpan draw_span(trace ? "engine.draw" : nullptr);
  const auto k = static_cast<std::size_t>(game.num_strategies());
  for (std::size_t i = 0; i < ws.support.size(); ++i) {
    emit(ws.support[i], std::span<const double>{ws.rows.data() + i * k, k});
  }
  if (metrics != nullptr) {
    metrics->rows_filled += static_cast<std::int64_t>(ws.support.size());
  }
}

}  // namespace engine_detail

/// Workspace-backed monomorphized draw — the kernel-typed core of the
/// engine.hpp draw_round frontend (see there for the full contract; this
/// one is identical modulo taking a ProtocolKernel instead of a Protocol).
template <ProtocolKernel K>
void draw_round(const CongestionGame& game, const State& x, const K& kernel,
                Rng& rng, EngineMode mode, RoundWorkspace& ws,
                RoundResult& out, int row_threads = 1,
                obs::EngineMetrics* metrics = nullptr, bool trace = false) {
  obs::EngineMetrics* const m = obs::kMetricsCompiled ? metrics : nullptr;
  const bool tr = obs::kMetricsCompiled && trace;
  out.moves.clear();
  out.movers = 0;
  {
    // A cold workspace rebuilds the full latency cache here, so that cost
    // lands in the first round's row-fill phase; steady-state prepare()
    // calls only resize-to-fit (no-ops) and recompute the support list.
    obs::PhaseTimer prep_timer(m != nullptr ? &m->row_fill_ns : nullptr);
    engine_detail::prepare(game, x, ws);
  }
  switch (mode) {
    case EngineMode::kAggregate:
      engine_detail::draw_aggregate(game, x, kernel, rng, ws, out,
                                    row_threads, m, tr);
      return;
    case EngineMode::kPerPlayer:
      engine_detail::draw_per_player(game, x, kernel, rng, ws, out,
                                     row_threads, m, tr);
      return;
  }
  CID_ENSURE(false, "unreachable engine mode");
}

/// Monomorphized run loop — the kernel-typed core of the engine.hpp
/// run_dynamics frontend. At most one of call.stop / call.cached_stop may
/// be non-empty; both empty means "run to max_rounds". The cached
/// predicate is handed the run's own workspace context (reset lazily
/// before the first check, incrementally refreshed afterwards).
template <ProtocolKernel K>
RunResult run_dynamics(const CongestionGame& game, State& x, const K& kernel,
                       Rng& rng, const EngineInvocation& call) {
  const RunOptions& options = call.options;
  CID_ENSURE(options.max_rounds >= 0, "max_rounds must be >= 0");
  CID_ENSURE(options.check_interval >= 1, "check_interval must be >= 1");
  CID_ENSURE(options.start_round >= 0, "start_round must be >= 0");
  CID_ENSURE(!(static_cast<bool>(call.stop) &&
               static_cast<bool>(call.cached_stop)),
             "EngineInvocation: at most one stop predicate may be set");
  // Null under CID_METRICS=0 regardless of the caller, so the constant
  // folds every metering branch below away.
  obs::EngineMetrics* const m = obs::kMetricsCompiled ? options.metrics
                                                      : nullptr;
  RunResult result;
  result.rounds = options.start_round;
  // One workspace for the whole run: after the first round's full cache
  // build, each round re-evaluates only the latencies its migrations
  // dirtied and performs no heap allocation.
  RoundWorkspace ws;
  RoundResult rr;
  const bool has_stop = static_cast<bool>(call.stop) ||
                        static_cast<bool>(call.cached_stop);
  const auto stop_now = [&](std::int64_t round) -> bool {
    if (static_cast<bool>(call.cached_stop)) {
      if (!ws.ready) {
        ws.ctx.reset(game, x);
        ws.ready = true;
      }
      return call.cached_stop(ws.ctx, round);
    }
    return call.stop(game, x, round);
  };
  // Span tracing samples every K-th round (trace_engine_sample_interval)
  // so multi-million-round runs stay bounded; a disarmed collector makes
  // `tr` constant false at the cost of one relaxed load per round.
  const std::int64_t trace_every = obs::trace_engine_sample_interval();
  for (std::int64_t round = options.start_round; round < options.max_rounds;
       ++round) {
    const bool tr = obs::trace_enabled() && round % trace_every == 0;
    if (has_stop && round % options.check_interval == 0) {
      bool stopped;
      {
        obs::PhaseTimer stop_timer(m != nullptr ? &m->stop_check_ns
                                                : nullptr);
        obs::TraceSpan stop_span(tr ? "engine.stop_check" : nullptr);
        if (m != nullptr) ++m->stop_checks;
        stopped = stop_now(round);
      }
      if (stopped) {
        result.converged = true;
        break;
      }
    }
    draw_round(game, x, kernel, rng, options.mode, ws, rr,
               options.row_threads, m, tr);
    if (call.observer) call.observer(game, x, rr.moves, round, false);
    {
      obs::PhaseTimer apply_timer(m != nullptr ? &m->apply_ns : nullptr);
      obs::TraceSpan apply_span(tr ? "engine.apply" : nullptr);
      x.apply(game, rr.moves, ws.apply_scratch);
    }
    {
      obs::PhaseTimer refresh_timer(m != nullptr ? &m->ctx_refresh_ns
                                                 : nullptr);
      obs::TraceSpan refresh_span(tr ? "engine.ctx_refresh" : nullptr);
      ws.ctx.refresh(ws.apply_scratch.touched);
    }
    result.total_movers += rr.movers;
    ++result.rounds;
    if (m != nullptr) ++m->rounds;
  }
  if (!result.converged && has_stop) {
    obs::PhaseTimer stop_timer(m != nullptr ? &m->stop_check_ns : nullptr);
    obs::TraceSpan stop_span(obs::trace_enabled() ? "engine.stop_check"
                                                  : nullptr);
    if (m != nullptr) ++m->stop_checks;
    if (stop_now(result.rounds)) result.converged = true;
  }
  if (call.observer) call.observer(game, x, {}, result.rounds, true);
  if (ws.ready) result.latency_evals = ws.ctx.latency_evals();
  return result;
}

}  // namespace cid
