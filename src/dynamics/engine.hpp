// Concurrent round-based dynamics engines (paper §2.3/§3).
//
// Two exact implementations of one round "all n players run the protocol in
// parallel against the same observed state x":
//
//   * kPerPlayer — literal: every player draws its destination from the
//     categorical {p_PQ}_Q with one uniform, located by binary search over
//     the row's cumulative probabilities. O(|support|·k + n·log k) per
//     round. Ground truth.
//   * kAggregate — cohort-level: for each origin strategy P the vector of
//     mover counts to all destinations is one multinomial draw
//     Multinomial(x_P; {p_PQ}_Q). Identical joint law (players are i.i.d.
//     given x), but independent of n. This engine is what makes the
//     paper's "logarithmic in n" claim (Thm 7) cheap to test at n = 10^6.
//
// Both engines run on a batched, cache-backed kernel: a per-round
// LatencyContext (game/latency_context.hpp) is maintained incrementally
// across rounds — State::apply reports the touched resources — and each
// origin's probability row is produced by one ProtocolKernel::fill_row
// call. The round loop itself is monomorphized over the kernel
// (dynamics/engine_kernel.hpp): the five engine phases (stop check, row
// fill, draw, apply, cache refresh) are templates over the ProtocolKernel
// concept (protocols/kernel.hpp), so the paper's protocols run with zero
// virtual dispatch on the hot path. This header is the type-erased
// frontend over those templates: every entrypoint below takes the
// Protocol handle, resolves it to its concrete kernel once per call
// (dispatch_protocol_kernel), and is bitwise-identical to the templated
// API it wraps.
//
// run_dynamics owns a reusable RoundWorkspace, so steady-state rounds
// perform no heap allocation and no latency-function evaluation beyond
// the entries a migration actually dirtied. The aggregate engine
// additionally PRUNES origins whose whole probability row is provably
// zero (row_provably_zero — e.g. ℓ_P within ν of the cheapest used
// strategy under imitation), skipping both the row fill and the
// conditional-binomial draws without touching the RNG stream, and
// EngineTuning::row_threads can fan the remaining per-origin row fills
// across persistent sweep-pool workers with a deterministic serial draw
// phase.
//
// The per-pair formulas of the paper, an uncached per-pair round and a
// reference run loop live in the test-only tests/protocol_oracle.hpp;
// tests/test_engine_oracle.cpp and tests/test_kernel_concepts.cpp hold
// these engines bitwise equal to them — same migrations, same RNG stream
// — so checkpoints, event logs and sweep manifests depend only on
// (game, state, protocol, seed).
//
// Migrations are collected against the pre-round state and applied
// atomically — the definition of concurrency in this model.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "game/congestion_game.hpp"
#include "game/latency_context.hpp"
#include "game/state.hpp"
#include "obs/metrics.hpp"
#include "protocols/protocol.hpp"
#include "util/rng.hpp"

namespace cid {

enum class EngineMode { kPerPlayer, kAggregate };

struct RoundResult {
  std::vector<Migration> moves;  // aggregated, zero-count entries omitted
  std::int64_t movers = 0;
};

/// Reusable hot-path buffers: the latency cache plus every per-round
/// scratch vector (probability rows, cumulative rows, multinomial counts,
/// support list, apply tally). Default-constructed empty; the kernel sizes
/// it on first use and run_dynamics keeps one alive for the whole run.
struct RoundWorkspace {
  LatencyContext ctx;
  std::vector<StrategyId> support;
  std::vector<double> probs;
  std::vector<double> cumulative;
  std::vector<std::int64_t> counts;
  ApplyScratch apply_scratch;
  /// row_threads > 1 only: one probability row per support entry (origin i
  /// owns rows[i*k, (i+1)*k)) so the parallel fill phase writes disjoint
  /// slices, plus the per-origin prune verdicts.
  std::vector<double> rows;
  std::vector<char> skip;
  bool ready = false;  // ctx reflects the caller's current (game, x)
};

/// The per-round bounds fed to row_provably_zero (support/improvement
/// pruning): min cached ℓ_Q(x) over the support and over all strategies,
/// plus the plus-dominance flag. O(k) reads; ctx must be consistent with x.
RowBounds compute_row_bounds(const CongestionGame& game, const State& x,
                             const LatencyContext& ctx);

/// Engine tuning knobs shared between RunOptions and the scenario layer's
/// DynamicsConfig (sweep/scenario.hpp embeds this same struct, so the two
/// option surfaces can never drift apart again). None of these fields
/// affects results — every combination is bitwise-identical — and none of
/// them enters a sweep-manifest grid fingerprint (persist/manifest.*
/// serializes only the semantic DynamicsConfig fields).
struct EngineTuning {
  /// Worker threads for the per-origin probability-row fills inside one
  /// round (see draw_round). 1 = serial (default); results are bitwise
  /// identical for every value.
  int row_threads = 1;
  /// Scenario-layer switch: collect per-trial obs::EngineMetrics. The core
  /// engine ignores it (RunOptions::metrics, the pointer the scenario
  /// layer derives from this flag, is what the run loop consumes).
  bool collect_metrics = false;
  /// Scenario-layer switch: emit one telemetry record every N rounds
  /// (0 = off). The core engine ignores it — the scenario layer turns it
  /// into a RoundObserver.
  std::int64_t telemetry_every = 0;
};

struct RunOptions : EngineTuning {
  std::int64_t max_rounds = 1'000'000;
  std::int64_t check_interval = 1;
  EngineMode mode = EngineMode::kAggregate;
  /// First round index to execute (max_rounds stays the TOTAL cap, not a
  /// per-invocation budget). Non-zero when resuming from a checkpoint: the
  /// caller restores (state, rng, round) from a snapshot and continues
  /// with absolute round numbering, so observers, stop checks, and event
  /// logs line up bit-exactly with the uninterrupted run.
  std::int64_t start_round = 0;
  /// Observability hook: when non-null, the run accumulates phase timers
  /// (ctx refresh, row fill, draw, apply, stop check) and work counters
  /// into it. Consumes zero RNG and never changes results — metrics-on
  /// and metrics-off runs are bitwise identical (tests/test_metrics.cpp).
  /// Compiled out entirely under CID_METRICS=0. The pointed-to struct
  /// must outlive the run; it is accumulated into, not reset.
  obs::EngineMetrics* metrics = nullptr;
};

struct RunResult {
  std::int64_t rounds = 0;        // completed rounds (absolute index)
  bool converged = false;         // stop predicate fired
  std::int64_t total_movers = 0;  // migrations summed over THIS invocation
  /// Latency-function evaluations the batched kernel performed this
  /// invocation (cache resets + incremental refreshes; stop predicates and
  /// observers are not counted).
  std::int64_t latency_evals = 0;
};

/// Draws one concurrent round (without applying it) on the batched kernel.
/// Builds a fresh latency cache per call — loops that step many rounds
/// should go through run_dynamics (or manage a RoundWorkspace) to get the
/// incremental cache.
RoundResult draw_round(const CongestionGame& game, const State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode);

/// Workspace-backed draw: appends nothing, reuses every buffer, and keeps
/// ws.ctx for incremental refresh. If ws.ready is false the cache is rebuilt
/// from (game, x); callers that mutate x between draws must either apply
/// the moves through x.apply(game, moves, ws.apply_scratch) and call
/// ws.ctx.refresh(ws.apply_scratch.touched), or clear ws.ready.
///
/// `row_threads` > 1 fans the independent per-origin probability-row fills
/// across that many sweep-pool workers (two-phase: parallel pure fills
/// into disjoint row slices, then the RNG draws serially in support
/// order), so output and RNG stream are BITWISE invariant in the thread
/// count. Workers are persistent (sweep/pool.hpp), so the per-round cost
/// is a queue handoff, not a thread spawn.
///
/// `metrics`, when non-null, accumulates row-fill/draw phase times and
/// rows filled/pruned counts. Purely observational: no RNG is consumed
/// and the round is bitwise identical with or without it (the metered
/// serial path routes through the same two-phase fill that row_threads=1
/// parallel_for executes inline, preserving fill and draw order exactly).
///
/// `trace` emits row-fill/draw spans into the obs/trace_span.hpp
/// collector for this one round (the run loop samples which rounds to
/// trace). Same bitwise contract as `metrics`: the traced path runs the
/// identical two-phase kernel, only with clock reads around it.
void draw_round(const CongestionGame& game, const State& x,
                const Protocol& protocol, Rng& rng, EngineMode mode,
                RoundWorkspace& ws, RoundResult& out, int row_threads = 1,
                obs::EngineMetrics* metrics = nullptr, bool trace = false);

/// Draws and applies one round; returns what moved.
RoundResult step_round(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng, EngineMode mode);

/// Observer invoked once per round *before* the moves are applied (so
/// `x` is the pre-round state; the post-round state is the next call's
/// `x`), and once more after the final round with an empty move list and
/// `final = true`.
using RoundObserver = std::function<void(
    const CongestionGame&, const State& x, std::span<const Migration> moves,
    std::int64_t round, bool final)>;

/// Stop predicate, evaluated on the current state every `check_interval`
/// rounds (round index is the number of completed rounds).
using StopPredicate = std::function<bool(const CongestionGame&,
                                         const State&, std::int64_t round)>;

/// Cache-backed stop predicate: receives the run's own LatencyContext,
/// already consistent with the current state, so equilibrium checks
/// (dynamics/equilibrium.hpp cached overloads) reuse the round kernel's
/// ℓ_P/ℓ_e tables instead of recomputing every latency per check.
using CachedStopPredicate =
    std::function<bool(const LatencyContext&, std::int64_t round)>;

/// One complete run_dynamics call, as data: options plus the (optional)
/// stop predicate — at most one of `stop` / `cached_stop` may be non-empty;
/// both empty means "run to max_rounds" — plus the (optional) observer.
/// Build it field by field and pass it to run_dynamics.
struct EngineInvocation {
  RunOptions options;
  StopPredicate stop;
  CachedStopPredicate cached_stop;
  RoundObserver observer;
};

/// THE run entrypoint: runs until the invocation's stop predicate fires or
/// options.max_rounds is exhausted. Resolves `protocol` to its concrete
/// kernel once (dispatch_protocol_kernel) and drives the monomorphized
/// run loop (dynamics/engine_kernel.hpp run_dynamics<K>), to which it is
/// bitwise-identical by construction.
RunResult run_dynamics(const CongestionGame& game, State& x,
                       const Protocol& protocol, Rng& rng,
                       const EngineInvocation& call);

}  // namespace cid
