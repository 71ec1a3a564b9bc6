// cid_gen — instance generator emitting the cid-game v1 text format.
//
//   cid_gen --family F --out FILE [--players N] [--links M] [--degree D]
//           [--width W] [--depth L] [--seed S]
//
// Families:
//   links      M parallel links, a_e*x^D with a_e spread over [1, 2]
//   uniform    M identical parallel links a=1, degree D
//   braess     the 4-node Braess network (mixed linear/constant)
//   layered    WxL layered network, random linear/quadratic edges
//   overshoot  the paper's two-link c vs x^D example
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "cid/cid.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: cid_gen --family F --out FILE [options]\n"
               "  families: links | uniform | braess | layered | overshoot\n"
               "  --players N  (default 1000)   --links M  (default 8)\n"
               "  --degree D   (default 1)      --width W  (default 3)\n"
               "  --depth L    (default 2)      --seed S   (default 1)\n");
  std::exit(error == nullptr ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string family, out;
  std::int64_t players = 1000;
  std::int32_t links = 8, width = 3, depth = 2;
  double degree = 1.0;
  std::uint64_t seed = 1;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for flag");
    return argv[++i];
  };
  // Parses the flag's value strictly (util/parse_number.hpp) into `value`.
  auto read_number = [&](int& i, auto& value) {
    const char* const flag = argv[i];
    value =
        parse_number<std::remove_cvref_t<decltype(value)>>(flag, need_value(i));
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--help" || flag == "-h") usage(nullptr);
      else if (flag == "--family") family = need_value(i);
      else if (flag == "--out") out = need_value(i);
      else if (flag == "--players") read_number(i, players);
      else if (flag == "--links") read_number(i, links);
      else if (flag == "--degree") read_number(i, degree);
      else if (flag == "--width") read_number(i, width);
      else if (flag == "--depth") read_number(i, depth);
      else if (flag == "--seed") read_number(i, seed);
      else usage(("unknown flag: " + flag).c_str());
    }
  } catch (const std::exception& e) {
    // Bad flag values land here; bad flag shapes exit through usage().
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (family.empty()) usage("--family is required");
  if (out.empty()) usage("--out is required");

  try {
    Rng rng(seed);
    auto build = [&]() -> CongestionGame {
      if (family == "links") {
        std::vector<LatencyPtr> fns;
        for (std::int32_t e = 0; e < links; ++e) {
          const double a =
              1.0 + static_cast<double>(e) / static_cast<double>(links);
          fns.push_back(make_monomial(a, degree));
        }
        return make_singleton_game(std::move(fns), players);
      }
      if (family == "uniform") {
        return make_uniform_links_game(links, make_monomial(1.0, degree),
                                       players);
      }
      if (family == "braess") {
        const auto net = make_braess_network();
        std::vector<LatencyPtr> fns{make_linear(1.0), make_constant(10.0),
                                    make_constant(10.0), make_linear(1.0),
                                    make_constant(1.0)};
        return make_network_game(net, std::move(fns), players);
      }
      if (family == "layered") {
        const auto net = make_layered_network(width, depth);
        std::vector<LatencyPtr> fns;
        for (EdgeId e = 0; e < net.graph.num_edges(); ++e) {
          const double a = 0.5 + rng.uniform();
          fns.push_back(rng.bernoulli(0.5)
                            ? make_linear(a)
                            : make_monomial(0.1 * a, 2.0));
        }
        return make_network_game(net, std::move(fns), players);
      }
      if (family == "overshoot") {
        const double x2_star = static_cast<double>(players) / 4.0;
        double c = 1.0;
        for (int k = 0; k < static_cast<int>(degree); ++k) c *= x2_star;
        return make_overshoot_example(c, 1.0, degree, players);
      }
      usage("unknown family");
    };
    const CongestionGame game = build();
    save_game(game, out);
    std::printf("wrote %s: %s\n", out.c_str(), game.describe().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
