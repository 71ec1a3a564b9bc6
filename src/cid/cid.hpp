// Umbrella header: the full public API of libcid.
//
// libcid reproduces "Concurrent Imitation Dynamics in Congestion Games"
// (Ackermann, Berenbrink, Fischer, Hoefer; PODC 2009). Typical usage:
//
//   auto game = cid::make_uniform_links_game(8, cid::make_linear(1.0), 1000);
//   cid::Rng rng(42);
//   auto x = cid::State::uniform_random(game, rng);
//   cid::ImitationProtocol protocol;
//   cid::EngineInvocation call;
//   call.stop = [&](const cid::CongestionGame& g, const cid::State& s,
//                   std::int64_t) {
//     return cid::is_delta_eps_equilibrium(g, s, 0.05, 0.05);
//   };
//   auto run = cid::run_dynamics(game, x, protocol, rng, call);
#pragma once

#include "analysis/experiment.hpp"    // IWYU pragma: export
#include "analysis/trace.hpp"         // IWYU pragma: export
#include "dynamics/asymmetric_engine.hpp"  // IWYU pragma: export
#include "dynamics/engine.hpp"        // IWYU pragma: export
#include "dynamics/equilibrium.hpp"   // IWYU pragma: export
#include "dynamics/sequential.hpp"    // IWYU pragma: export
#include "game/asymmetric.hpp"        // IWYU pragma: export
#include "game/builders.hpp"          // IWYU pragma: export
#include "game/congestion_game.hpp"   // IWYU pragma: export
#include "game/io.hpp"                // IWYU pragma: export
#include "game/potential.hpp"         // IWYU pragma: export
#include "game/singleton.hpp"         // IWYU pragma: export
#include "game/state.hpp"             // IWYU pragma: export
#include "graph/generators.hpp"       // IWYU pragma: export
#include "graph/graph.hpp"            // IWYU pragma: export
#include "graph/paths.hpp"            // IWYU pragma: export
#include "latency/latency.hpp"        // IWYU pragma: export
#include "lowerbound/maxcut.hpp"      // IWYU pragma: export
#include "lowerbound/threshold_game.hpp"  // IWYU pragma: export
#include "obs/metrics.hpp"            // IWYU pragma: export
#include "obs/progress.hpp"           // IWYU pragma: export
#include "obs/sink.hpp"               // IWYU pragma: export
#include "obs/telemetry.hpp"          // IWYU pragma: export
#include "obs/trace_span.hpp"         // IWYU pragma: export
#include "persist/binio.hpp"          // IWYU pragma: export
#include "persist/checkpoint.hpp"     // IWYU pragma: export
#include "persist/codec.hpp"          // IWYU pragma: export
#include "persist/eventlog.hpp"       // IWYU pragma: export
#include "persist/manifest.hpp"       // IWYU pragma: export
#include "persist/snapshot.hpp"       // IWYU pragma: export
#include "protocols/combined.hpp"     // IWYU pragma: export
#include "protocols/exploration.hpp"  // IWYU pragma: export
#include "protocols/imitation.hpp"    // IWYU pragma: export
#include "sweep/output.hpp"           // IWYU pragma: export
#include "sweep/pool.hpp"             // IWYU pragma: export
#include "sweep/runner.hpp"           // IWYU pragma: export
#include "sweep/scenario.hpp"         // IWYU pragma: export
#include "util/rng.hpp"               // IWYU pragma: export
#include "wardrop/fluid.hpp"          // IWYU pragma: export
#include "util/stats.hpp"             // IWYU pragma: export
#include "util/table.hpp"             // IWYU pragma: export
#include "util/timer.hpp"             // IWYU pragma: export
