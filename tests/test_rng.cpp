// Unit and statistical tests for the RNG substrate. Exactness of the
// binomial/multinomial samplers is load-bearing for the whole reproduction
// (the aggregate engine's round law is built out of them), so the moment and
// goodness-of-fit tolerances here are deliberately tight.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "rng_oracle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cid {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values from the public-domain splitmix64 with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.next(), 0x06C45D188009454FULL);
}

TEST(Xoshiro256pp, DeterministicPerSeed) {
  Xoshiro256pp a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    // Different seeds should diverge almost surely.
    if (va != c()) return;
  }
  FAIL() << "seeds 123 and 124 produced identical 100-draw streams";
}

TEST(Xoshiro256pp, JumpChangesStream) {
  Xoshiro256pp a(7), b(7);
  b.jump();
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++agree;
  }
  EXPECT_LT(agree, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsAndMean) {
  Rng rng(2);
  const std::uint64_t bound = 17;
  double sum = 0.0;
  const int kDraws = 200000;
  std::vector<double> counts(bound, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.uniform_int(bound);
    ASSERT_LT(v, bound);
    counts[v] += 1.0;
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / kDraws, 8.0, 0.05);
  // Chi-square uniformity: 16 dof, reject-at-1e-6 threshold ~ 56.
  std::vector<double> expected(bound,
                               static_cast<double>(kDraws) /
                                   static_cast<double>(bound));
  EXPECT_LT(chi_square_statistic(counts, expected), 56.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(4);
  EXPECT_EQ(rng.binomial(0, 0.5), 0);
  EXPECT_EQ(rng.binomial(100, 0.0), 0);
  EXPECT_EQ(rng.binomial(100, 1.0), 100);
  EXPECT_THROW(rng.binomial(-1, 0.5), invariant_violation);
}

struct BinomialCase {
  std::int64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  // Covers all three sampler regimes: Bernoulli sum (n<=32), inversion
  // (np < 12), and BTRS (np >= 12), plus the p > 1/2 reflection.
  const auto [n, p] = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(n));
  const int kDraws = 60000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto k = rng.binomial(n, p);
    ASSERT_GE(k, 0);
    ASSERT_LE(k, n);
    const auto kd = static_cast<double>(k);
    sum += kd;
    sumsq += kd * kd;
  }
  const double mean = sum / kDraws;
  const double var = sumsq / kDraws - mean * mean;
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = static_cast<double>(n) * p * (1.0 - p);
  const double mean_tol = 6.0 * std::sqrt(true_var / kDraws) + 1e-9;
  EXPECT_NEAR(mean, true_mean, mean_tol) << "n=" << n << " p=" << p;
  EXPECT_NEAR(var, true_var, 0.08 * true_var + 0.01) << "n=" << n
                                                     << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMoments,
    ::testing::Values(BinomialCase{10, 0.3},        // Bernoulli sum
                      BinomialCase{31, 0.5},        // Bernoulli sum boundary
                      BinomialCase{1000, 0.001},    // inversion, tiny mean
                      BinomialCase{500, 0.01},      // inversion
                      BinomialCase{200, 0.4},       // BTRS
                      BinomialCase{100000, 0.25},   // BTRS large n
                      BinomialCase{1000, 0.97},     // reflection + inversion
                      BinomialCase{5000, 0.75}));   // reflection + BTRS

TEST(Rng, BinomialDistributionChiSquare) {
  // Goodness-of-fit for Binomial(40, 0.3) over a binned support.
  Rng rng(99);
  const std::int64_t n = 40;
  const double p = 0.3;
  const int kDraws = 100000;
  std::vector<double> observed(41, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    observed[static_cast<std::size_t>(rng.binomial(n, p))] += 1.0;
  }
  // Exact pmf via recurrence.
  std::vector<double> pmf(41);
  pmf[0] = std::pow(1.0 - p, static_cast<double>(n));
  for (int k = 1; k <= 40; ++k) {
    pmf[static_cast<std::size_t>(k)] =
        pmf[static_cast<std::size_t>(k - 1)] * (p / (1.0 - p)) *
        static_cast<double>(n - k + 1) / static_cast<double>(k);
  }
  // Merge bins with expectation < 10 into neighbours (standard practice).
  std::vector<double> obs_binned, exp_binned;
  double o_acc = 0.0, e_acc = 0.0;
  for (int k = 0; k <= 40; ++k) {
    o_acc += observed[static_cast<std::size_t>(k)];
    e_acc += pmf[static_cast<std::size_t>(k)] * kDraws;
    if (e_acc >= 10.0) {
      obs_binned.push_back(o_acc);
      exp_binned.push_back(e_acc);
      o_acc = e_acc = 0.0;
    }
  }
  if (e_acc > 0.0) {
    obs_binned.back() += o_acc;
    exp_binned.back() += e_acc;
  }
  const double stat = chi_square_statistic(obs_binned, exp_binned);
  // dof ~ bins-1 (~20); 1e-6-level rejection threshold ~ 60.
  EXPECT_LT(stat, 60.0);
}

TEST(Rng, MultinomialConservesTrialsAndMeans) {
  Rng rng(5);
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.15};  // sums to 0.75
  const std::int64_t n = 10000;
  std::vector<double> mean(probs.size(), 0.0);
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    const auto counts = rng.multinomial(n, probs);
    ASSERT_EQ(counts.size(), probs.size());
    std::int64_t total = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      ASSERT_GE(counts[j], 0);
      total += counts[j];
      mean[j] += static_cast<double>(counts[j]);
    }
    ASSERT_LE(total, n);  // residual mass stays put
  }
  for (std::size_t j = 0; j < probs.size(); ++j) {
    EXPECT_NEAR(mean[j] / kDraws, static_cast<double>(n) * probs[j],
                0.02 * static_cast<double>(n) * probs[j] + 1.0);
  }
}

TEST(Rng, MultinomialFullMassConservesExactly) {
  Rng rng(6);
  const std::vector<double> probs{0.25, 0.25, 0.25, 0.25};
  for (int i = 0; i < 200; ++i) {
    const auto counts = rng.multinomial(1000, probs);
    std::int64_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, 1000);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(7);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
  EXPECT_THROW(rng.categorical(std::vector<double>{}), invariant_violation);
  EXPECT_THROW(rng.categorical(std::vector<double>{0.0, 0.0}),
               invariant_violation);
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng parent(11);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++agree;
  }
  EXPECT_EQ(agree, 0);
}

// ---- RNG durability (the persistence subsystem's contract) -----------------
//
// state()/set_state must make the stream durable: a generator saved at ANY
// point and restored elsewhere continues the identical draw sequence. The
// binomial sampler makes this non-trivial to state — it switches between
// three regimes (Bernoulli summation, CDF inversion, BTRS rejection) that
// consume different numbers of uniforms per variate, and BTRS consumes a
// *data-dependent* number (rejection). Durability must hold mid-sequence
// and across every regime boundary regardless.

TEST(RngDurability, StateRoundTripContinuesTheRawStream) {
  Xoshiro256pp gen(2024);
  for (int i = 0; i < 1000; ++i) (void)gen();
  const auto saved = gen.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 256; ++i) expected.push_back(gen());
  Xoshiro256pp restored(1);  // deliberately different seed
  restored.set_state(saved);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(restored(), expected[i]);
}

TEST(RngDurability, AllZeroStateIsClampedOffTheFixedPoint) {
  Xoshiro256pp gen(1);
  gen.set_state({0, 0, 0, 0});
  // The all-zero state is a fixed point of xoshiro; set_state must not
  // allow a (corrupt) snapshot to freeze the stream at zero forever.
  bool nonzero = false;
  for (int i = 0; i < 8; ++i) nonzero = nonzero || gen() != 0;
  EXPECT_TRUE(nonzero);
}

TEST(RngDurability, SaveRestoreMidBinomialSequenceAcrossAllRegimes) {
  // A schedule that walks every sampler regime, including both sides of
  // the BTRS/inversion boundary at mean = 12 (n * p around 12 with
  // n > 32): inversion just below, BTRS just above.
  const std::vector<std::pair<std::int64_t, double>> schedule = {
      {8, 0.5},      // direct Bernoulli summation (n <= 32)
      {1000, 0.005}, // inversion (mean 5 < 12)
      {1000, 0.0119},// inversion, just below the boundary (mean 11.9)
      {1000, 0.0121},// BTRS, just above the boundary (mean 12.1)
      {1000, 0.3},   // BTRS, deep rejection territory
      {50, 0.9},     // symmetry flip (p > 1/2) on top of BTRS/inversion
  };
  Rng rng(0xD00D);
  // Burn in partway through the schedule, then save MID-sequence.
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const auto& [n, p] : schedule) (void)rng.binomial(n, p);
  }
  const auto saved = rng.state();
  Rng restored(1);
  restored.set_state(saved);
  // The continuation must be identical draw by draw, for many passes —
  // long enough that any desynchronization (an off-by-one uniform in a
  // rejection loop, say) would surface.
  for (int repeat = 0; repeat < 50; ++repeat) {
    for (const auto& [n, p] : schedule) {
      EXPECT_EQ(restored.binomial(n, p), rng.binomial(n, p))
          << "repeat " << repeat << " n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(restored.state(), rng.state());
}

TEST(RngDurability, SaveRestoreMidMultinomialSequence) {
  const std::vector<double> probs = {0.25, 0.125, 0.5, 0.0625};
  Rng rng(777);
  for (int i = 0; i < 10; ++i) (void)rng.multinomial(5000, probs);
  const auto saved = rng.state();
  Rng restored(1);
  restored.set_state(saved);
  for (int i = 0; i < 100; ++i) {
    // Vary n so the conditional binomials cross regimes as mass depletes.
    const std::int64_t n = 17 + 311 * i;
    EXPECT_EQ(restored.multinomial(n, probs), rng.multinomial(n, probs))
        << "draw " << i;
  }
  EXPECT_EQ(restored.state(), rng.state());
}

// ---- Draw-phase fast paths ------------------------------------------------
// Rng::binomial's fast paths (rng.hpp) must draw exactly the uniforms the
// plain sampler draws and return exactly its values. The plain sampler is
// kept verbatim in tests/rng_oracle.hpp; these tests run both from one seed
// and compare every result and the generator state after every draw.

// Uniform integer in [lo, hi] with a log-uniform bit width, from integer
// arithmetic only (no libm), so the parameter stream is the same on every
// build.
std::int64_t log_uniform_int(SplitMix64& sm, std::int64_t lo,
                             std::int64_t hi) {
  const int lo_bits = std::bit_width(static_cast<std::uint64_t>(lo));
  const int hi_bits = std::bit_width(static_cast<std::uint64_t>(hi));
  const int bits =
      lo_bits + static_cast<int>(sm.next() % static_cast<std::uint64_t>(
                                                 hi_bits - lo_bits + 1));
  const std::int64_t base = std::int64_t{1} << (bits - 1);
  const std::int64_t value =
      base + static_cast<std::int64_t>(sm.next() %
                                       static_cast<std::uint64_t>(base));
  return std::clamp(value, lo, hi);
}

double unit_interval(SplitMix64& sm) {
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

// One (n, p) argument pair. The regime is picked first so the Bernoulli
// loop, the inversion and BTRS are hit about equally; a quarter of the
// pairs are reflected to p > 1/2 through binomial's symmetry branch.
std::pair<std::int64_t, double> draw_binomial_args(SplitMix64& sm) {
  constexpr std::int64_t kMaxN = std::int64_t{1} << 31;
  std::int64_t n = 0;
  double p = 0.0;
  switch (sm.next() % 3) {
    case 0:  // Bernoulli loop
      n = 1 + static_cast<std::int64_t>(sm.next() % 32);
      p = std::ldexp(unit_interval(sm), -static_cast<int>(sm.next() % 40));
      break;
    case 1:  // inversion: n * p < 12
      n = log_uniform_int(sm, 33, kMaxN);
      p = unit_interval(sm) * (12.0 / static_cast<double>(n));
      break;
    default:  // BTRS: n * p >= 12
      n = log_uniform_int(sm, 33, kMaxN);
      p = 12.0 / static_cast<double>(n) +
          unit_interval(sm) * (0.5 - 12.0 / static_cast<double>(n));
      break;
  }
  if (sm.next() % 4 == 0) p = 1.0 - p;
  return {n, p};
}

TEST(RngFastPaths, BinomialMatchesTheReferenceSamplerOnEdgeCases) {
  const double one_ulp_above_zero = std::numeric_limits<double>::denorm_min();
  std::vector<double> ps = {
      0.5,
      std::nextafter(0.5, 0.0),
      std::nextafter(0.5, 1.0),
      one_ulp_above_zero,
      1e-310,                             // subnormal
      std::numeric_limits<double>::min(), // smallest normal
      0x1.0p-54,                          // 1 - p rounds to 1
      0x1.0p-53,
      std::nextafter(1.0, 0.0),           // reflects to p = 2^-53
      1e-9,
      1e-3,
      0.1,
      0.3,
  };
  std::vector<std::pair<std::int64_t, double>> cases;
  for (const std::int64_t n :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{31}, std::int64_t{32},
        std::int64_t{33}, std::int64_t{34}, std::int64_t{64},
        std::int64_t{1000}, std::int64_t{1} << 20, std::int64_t{1} << 31}) {
    for (const double p : ps) cases.emplace_back(n, p);
    // The inversion/BTRS boundary at n * p = 12, from both sides.
    const double boundary = 12.0 / static_cast<double>(n);
    if (boundary <= 0.5) {
      for (const double p : {boundary, std::nextafter(boundary, 0.0),
                             std::nextafter(boundary, 1.0)}) {
        cases.emplace_back(n, p);
      }
    }
  }
  std::uint64_t seed = 1;
  for (const auto& [n, p] : cases) {
    Rng rng(seed);
    oracle::ReferenceBinomial reference(seed);
    ++seed;
    for (int draw = 0; draw < 16; ++draw) {
      ASSERT_EQ(rng.binomial(n, p), reference.binomial(n, p))
          << "n=" << n << " p=" << p << " draw " << draw;
      ASSERT_EQ(rng.state(), reference.state())
          << "n=" << n << " p=" << p << " draw " << draw;
    }
  }
}

TEST(RngFastPaths, BinomialMatchesTheReferenceSamplerOnASeededGrid) {
  SplitMix64 args(0x5EED0F);
  Rng rng(0xB1D);
  oracle::ReferenceBinomial reference(0xB1D);
  for (int i = 0; i < 200000; ++i) {
    const auto [n, p] = draw_binomial_args(args);
    ASSERT_EQ(rng.binomial(n, p), reference.binomial(n, p))
        << "draw " << i << " n=" << n << " p=" << p;
    ASSERT_EQ(rng.state(), reference.state())
        << "draw " << i << " n=" << n << " p=" << p;
  }
}

TEST(RngFastPaths, MultinomialMatchesTheReferenceBinomialChain) {
  // The engines draw through multinomial; its conditional binomials must
  // reach the same counts as the reference sampler given the same
  // arguments.
  const std::vector<double> probs = {1e-6, 0.02, 0.0, 0.3, 1e-3, 0.1};
  Rng rng(31);
  oracle::ReferenceBinomial reference(31);
  std::vector<std::int64_t> out(probs.size());
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t n = 1 + 37 * i;
    rng.multinomial(n, probs, out);
    double remaining = 1.0;
    std::int64_t left = n;
    for (std::size_t c = 0; c < probs.size() && left > 0; ++c) {
      if (probs[c] <= 0.0) continue;
      const double cond =
          remaining <= 0.0 ? 1.0 : std::min(1.0, probs[c] / remaining);
      const std::int64_t expected = reference.binomial(left, cond);
      ASSERT_EQ(out[c], expected) << "draw " << i << " category " << c;
      left -= expected;
      remaining -= probs[c];
    }
    ASSERT_EQ(rng.state(), reference.state()) << "draw " << i;
  }
}

// A generator state whose next raw draw is exactly `x`: with word 0 zero,
// the xoshiro256++ output is rotl(word 3, 23).
std::array<std::uint64_t, 4> state_drawing(std::uint64_t x) {
  return {0, 0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL,
          (x >> 23) | (x << 41)};
}

// Runs binomial(n, p) on both samplers from a state whose first uniform
// is m * 2^-53 (`low` fills the 11 bits uniform() discards).
void expect_same_first_draw(std::int64_t n, double p, std::uint64_t m,
                            std::uint64_t low = 0) {
  const auto start = state_drawing((m << 11) | low);
  Rng rng(1);
  rng.set_state(start);
  oracle::ReferenceBinomial reference(1);
  reference.set_state(start);
  ASSERT_EQ(rng.binomial(n, p), reference.binomial(n, p))
      << "n=" << n << " p=" << p << " m=" << m << " low=" << low;
  ASSERT_EQ(rng.state(), reference.state())
      << "n=" << n << " p=" << p << " m=" << m << " low=" << low;
}

TEST(RngFastPaths, BernoulliThresholdIsExactAtTheBoundary) {
  // A uniform equal to p, or one step either side of p * 2^53, must fall
  // on the same side of the integer threshold as uniform() < p.
  for (const double p :
       {0.5, std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0), 0.1, 0.3,
        1.0 / 3.0, 0.7, 0x1.0p-53, 3 * 0x1.0p-53, 1e-300, 1e-310,
        std::numeric_limits<double>::denorm_min()}) {
    const double working = p > 0.5 ? 1.0 - p : p;
    const auto below =
        static_cast<std::uint64_t>(std::floor(working * 0x1.0p53));
    for (std::uint64_t m = below == 0 ? 0 : below - 1; m <= below + 2; ++m) {
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7FF}}) {
        for (const std::int64_t n : {1, 7, 32}) {
          expect_same_first_draw(n, p, m, low);
        }
      }
    }
  }
}

TEST(RngFastPaths, InversionFirstStepIsExactAroundBothBounds) {
  // The first uniform at, and one step either side of, pow_floor(q, n)
  // (where the pow-free accept hands over to the walk) and pow(q, n)
  // (where the walk's k = 0 test flips).
  const std::vector<std::pair<std::int64_t, double>> cases = {
      {33, 0.01},        {33, 0x1.0p-53},   {100, 0.1},
      {1000, 0.001},     {1000, 0.0119},    {std::int64_t{1} << 20, 1e-6},
      {std::int64_t{1} << 31, 5e-9},        {std::int64_t{1} << 31, 1e-12},
  };
  for (const auto& [n, p] : cases) {
    const double q = 1.0 - p;
    const double nd = static_cast<double>(n);
    for (const double bound : {detail::pow_floor(q, nd), std::pow(q, nd)}) {
      if (bound <= 0.0) continue;
      const auto at = static_cast<std::uint64_t>(std::floor(bound * 0x1.0p53));
      for (std::uint64_t m = at - 1; m <= at + 1; ++m) {
        if (m >= (std::uint64_t{1} << 53)) continue;
        expect_same_first_draw(n, p, m);
      }
    }
  }
}

// pow_floor(q, n) must stay below std::pow(q, n) with room for pow's
// error bound: glibc's pow may be one ulp from the exact q^n, so the bound
// must sit at least one ulp below the computed value.
void expect_below_pow(std::int64_t n, std::uint64_t j) {
  const double q = 1.0 - static_cast<double>(j) * 0x1.0p-53;  // exact
  const double nd = static_cast<double>(n);
  const double floor = detail::pow_floor(q, nd);
  const double f = std::pow(q, nd);
  ASSERT_LE(floor, f) << "n=" << n << " d=" << j << "*2^-53";
  ASSERT_LE(floor, std::nextafter(f, 0.0))
      << "n=" << n << " d=" << j << "*2^-53: less than one ulp below pow";
}

TEST(RngFastPaths, PowFloorStaysBelowPowOnSeededPairs) {
  // n in [33, 2^31], d = j * 2^-53 in (0, 1/2] with n * d < 12: every
  // (n, q) the inversion can see, since every q in [1/2, 1) is 1 - j*2^-53.
  constexpr std::int64_t kMaxN = std::int64_t{1} << 31;
  SplitMix64 sm(0x9077);
  for (int i = 0; i < 1000000; ++i) {
    const std::int64_t n = log_uniform_int(sm, 33, kMaxN);
    const auto j_max = std::min<std::uint64_t>(
        ((std::uint64_t{12} << 53) - 1) / static_cast<std::uint64_t>(n),
        std::uint64_t{1} << 52);
    const auto j = static_cast<std::uint64_t>(
        log_uniform_int(sm, 1, static_cast<std::int64_t>(j_max)));
    expect_below_pow(n, j);
  }
}

TEST(RngFastPaths, PowFloorStaysBelowPowWhereTheBoundIsTight) {
  // Adversarial pairs: with n*j < 2^26 the second-order term
  // C(n,2) d^2 < 2^-53, so pow(q, n) lies within an ulp or two of
  // 1 - n*d and only the margin keeps the bound below it.
  SplitMix64 sm(0xAD7);
  int tight = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto j = static_cast<std::uint64_t>(log_uniform_int(sm, 1, 1 << 20));
    const std::int64_t n_max =
        std::max<std::int64_t>(33, (std::int64_t{1} << 26) /
                                       static_cast<std::int64_t>(j));
    const std::int64_t n = log_uniform_int(sm, 33, n_max);
    expect_below_pow(n, j);
    const double q = 1.0 - static_cast<double>(j) * 0x1.0p-53;
    const double first_order =
        1.0 - static_cast<double>(n) * static_cast<double>(j) * 0x1.0p-53;
    if (std::pow(q, static_cast<double>(n)) - first_order <= 0x1.0p-52) {
      ++tight;
    }
  }
  // Most of these pairs really are within two ulps of the bound.
  EXPECT_GT(tight, 100000);
}

TEST(RngFastPaths, GoldenBinomialFingerprint) {
  // FNV-1a over 10^5 binomial results and the final generator state. The
  // value was taken from the sampler before the fast paths; any change to
  // which uniforms are drawn or what is returned moves it.
  SplitMix64 args(0xF1A6);
  Rng rng(20260419);
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (int i = 0; i < 100000; ++i) {
    const auto [n, p] = draw_binomial_args(args);
    mix(static_cast<std::uint64_t>(rng.binomial(n, p)));
  }
  for (const std::uint64_t word : rng.state()) mix(word);
  EXPECT_EQ(hash, 0x67E8757825F0E549ULL);
}

}  // namespace
}  // namespace cid
