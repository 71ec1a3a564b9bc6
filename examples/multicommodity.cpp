// Multi-commodity routing (asymmetric congestion game, paper §3 remark).
// Two traffic classes share a middle link; each class imitates only within
// itself. The dynamics equilibrate both classes concurrently.
//
// Build & run:  ./build/examples/multicommodity
#include <cstdio>

#include "cid/cid.hpp"

int main() {
  // Class 0 routes over {fast0, slow0, shared}; class 1 over
  // {shared, slow1, fast1}. The shared link is cheap but contested.
  std::vector<cid::LatencyPtr> fns{
      cid::make_linear(1.5),   // 0: class-0 exclusive
      cid::make_linear(3.0),   // 1: class-0 exclusive, slow
      cid::make_linear(0.75),  // 2: shared, fast
      cid::make_linear(3.0),   // 3: class-1 exclusive, slow
      cid::make_linear(1.5)};  // 4: class-1 exclusive
  std::vector<cid::PlayerClass> classes(2);
  classes[0].strategies = {{0}, {1}, {2}};
  classes[0].num_players = 3000;
  classes[1].strategies = {{2}, {3}, {4}};
  classes[1].num_players = 2000;
  const cid::AsymmetricGame game(std::move(fns), std::move(classes));
  std::printf("game: %s\n\n", game.describe().c_str());

  cid::Rng rng(5);
  auto x = cid::AsymmetricState::uniform_random(game, rng);
  cid::AsymmetricImitationParams params;

  cid::Table table({"round", "potential", "class-0 L_av", "class-1 L_av",
                    "shared link load", "movers"});
  cid::AsymmetricRoundWorkspace ws;
  cid::AsymmetricRoundResult rr;
  std::int64_t round = 0;
  std::int64_t movers_acc = 0;
  for (; round < 100000; ++round) {
    if (round % 25 == 0 ||
        cid::is_asymmetric_imitation_stable(game, x, game.nu())) {
      table.row()
          .cell(round)
          .cell(game.potential(x), 1)
          .cell(game.class_average_latency(x, 0), 2)
          .cell(game.class_average_latency(x, 1), 2)
          .cell(x.congestion(2))
          .cell(movers_acc);
    }
    if (cid::is_asymmetric_imitation_stable(game, x, game.nu())) break;
    cid::step_asymmetric_round(game, x, params, rng, ws, rr);
    movers_acc += rr.movers;
  }
  table.print("two-commodity imitation dynamics (n = 3000 + 2000)");
  std::printf(
      "\nclass-wise imitation-stable after %lld rounds; exact Nash: %s\n"
      "final loads class 0: %lld/%lld/%lld, class 1: %lld/%lld/%lld\n",
      static_cast<long long>(round),
      cid::is_asymmetric_nash(game, x) ? "yes" : "no",
      static_cast<long long>(x.count(0, 0)),
      static_cast<long long>(x.count(0, 1)),
      static_cast<long long>(x.count(0, 2)),
      static_cast<long long>(x.count(1, 0)),
      static_cast<long long>(x.count(1, 1)),
      static_cast<long long>(x.count(1, 2)));
  return 0;
}
