// Plain-text serialization of games and states.
//
// A downstream user of the library needs to pin down the exact instance an
// experiment ran on; this module gives games and states a stable,
// human-readable, diff-able on-disk form:
//
//   cid-game v1
//   players 400
//   resources 2
//   latency constant 10
//   latency polynomial 2 0 1 0.5
//   strategies 2
//   strategy 1 0
//   strategy 1 1
//   end
//
// Supported latency classes: constant, monomial, polynomial, exponential,
// and scaled (wrapping any of the former). Parsing is strict: any
// unrecognized or malformed line throws with a line number.
#pragma once

#include <iosfwd>
#include <string>

#include "game/congestion_game.hpp"
#include "game/state.hpp"
#include "util/assert.hpp"

namespace cid {

/// Serializes a game; inverse of parse_game. Throws for latency classes
/// outside the supported set (e.g. user-defined subclasses).
std::string serialize_game(const CongestionGame& game);
CongestionGame parse_game(const std::string& text);

/// Serializes per-strategy counts; the game is needed at parse time to
/// validate dimensions.
std::string serialize_state(const State& x);
State parse_state(const CongestionGame& game, const std::string& text);

/// A file named by the user cannot be opened, read or written, or its
/// text does not parse. The message names the path and the reason; tools
/// report it as bad input. It derives from invariant_violation, the type
/// the loaders threw for this before, so callers that catch that type
/// still catch it.
class input_error : public invariant_violation {
 public:
  using invariant_violation::invariant_violation;
};

/// File convenience wrappers. All writers flush and verify the stream
/// before returning, throwing with the path name on any write failure —
/// a full disk must never silently truncate an instance file; a path that
/// cannot be opened for writing throws input_error. The loaders throw
/// input_error, prefixed with the path, when the file cannot be opened or
/// read or its text is malformed.
void save_game(const CongestionGame& game, const std::string& path);
CongestionGame load_game(const std::string& path);
void save_state(const State& x, const std::string& path);
State load_state(const CongestionGame& game, const std::string& path);

}  // namespace cid
