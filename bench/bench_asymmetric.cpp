// E15 — the §3 remark: the convergence machinery is insensitive to
// symmetry; with class-local sampling ("each player samples only among
// players that have the same strategy space") the potential remains a
// super-martingale and the dynamics still equilibrate fast.
//
// Two-commodity grid of parallel links with a contested middle link:
// Part A checks E[ΔΦ] <= 0 per round; Part B sweeps the population size
// showing the hitting time of class-wise imitation-stability stays flat
// (the asymmetric analogue of E3's log-n headline).
#include <cstdio>

#include "common.hpp"

using namespace cid;

namespace {

AsymmetricGame two_commodity(std::int64_t n_per_class) {
  // Resources: 0,1 exclusive to class 0; 2 contested; 3,4 exclusive to
  // class 1. Linear latencies with distinct slopes.
  std::vector<LatencyPtr> fns{make_linear(1.0), make_linear(2.0),
                              make_linear(1.0), make_linear(2.0),
                              make_linear(1.0)};
  std::vector<PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = n_per_class;
  classes[1].strategies = {{2}, {3}, {4}};
  classes[1].num_players = n_per_class;
  return AsymmetricGame(std::move(fns), std::move(classes));
}

AsymmetricState skewed_start(const AsymmetricGame& game) {
  std::vector<std::vector<std::int64_t>> counts(2);
  for (std::int32_t c = 0; c < 2; ++c) {
    const std::int64_t n = game.player_class(c).num_players;
    counts[static_cast<std::size_t>(c)] = {n - 2, 1, 1};
  }
  return AsymmetricState(game, std::move(counts));
}

}  // namespace

int main() {
  std::printf(
      "E15 / section 3 remark — asymmetric (two-commodity) imitation\n"
      "dynamics with class-local sampling\n\n");

  // Part A: super-martingale property.
  Table ta({"n per class", "E[dPhi] per round", "supermartingale?"});
  AsymmetricImitationParams params;
  for (std::int64_t n : {std::int64_t{100}, std::int64_t{1000},
                         std::int64_t{10000}}) {
    const auto game = two_commodity(n);
    RunningStat stat;
    for (int trial = 0; trial < 60; ++trial) {
      Rng rng(0xE15 + static_cast<std::uint64_t>(trial));
      AsymmetricState x = skewed_start(game);
      const double phi0 = game.potential(x);
      AsymmetricRoundWorkspace ws;
      AsymmetricRoundResult rr;
      for (int round = 0; round < 10; ++round) {
        step_asymmetric_round(game, x, params, rng, ws, rr);
      }
      stat.add((game.potential(x) - phi0) / 10.0);
    }
    ta.row()
        .cell(n)
        .cell_pm(stat.mean(), stat.sem(), 3)
        .cell(stat.mean() <= 3.0 * stat.sem() ? "yes" : "VIOLATION");
  }
  ta.print("Part A: potential drift per round (60 trials x 10 rounds)");

  // Part B: hitting time of class-wise imitation stability vs n.
  std::printf("\n");
  Table tb({"n per class", "rounds to class-stable", "class-0 L_av",
            "class-1 L_av", "Nash?"});
  for (std::int64_t n : {std::int64_t{100}, std::int64_t{1000},
                         std::int64_t{10000}, std::int64_t{100000}}) {
    const auto game = two_commodity(n);
    RunningStat rounds_stat;
    double l0 = 0.0, l1 = 0.0;
    bool nash = true;
    const int kTrials = 15;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(0x15E + static_cast<std::uint64_t>(trial));
      AsymmetricState x = skewed_start(game);
      AsymmetricRoundWorkspace ws;
      AsymmetricRoundResult rr;
      std::int64_t round = 0;
      for (; round < 200000; ++round) {
        if (is_asymmetric_imitation_stable(game, x, game.nu())) break;
        step_asymmetric_round(game, x, params, rng, ws, rr);
      }
      rounds_stat.add(static_cast<double>(round));
      l0 += game.class_average_latency(x, 0);
      l1 += game.class_average_latency(x, 1);
      nash = nash && is_asymmetric_nash(game, x);
    }
    tb.row()
        .cell(n)
        .cell_pm(rounds_stat.mean(), rounds_stat.sem(), 1)
        .cell(l0 / kTrials, 2)
        .cell(l1 / kTrials, 2)
        .cell(nash ? "yes" : "no (imitation-stable only)");
  }
  tb.print("Part B: hitting time of class-wise imitation stability");
  std::printf(
      "\nReading: the potential decreases in expectation and hitting times\n"
      "stay essentially flat in n, under class-local sampling — the §3\n"
      "remark that none of the convergence machinery needs symmetry.\n");
  return 0;
}
