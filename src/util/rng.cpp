#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <math.h>  // lgamma_r (POSIX)

#include "util/assert.hpp"

namespace cid {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

void Xoshiro256pp::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)(*this)();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

Rng Rng::split(std::uint64_t key) noexcept {
  SplitMix64 sm(next_u64() ^ (key * 0x9E3779B97F4A7C15ULL));
  return Rng(sm.next());
}

std::uint64_t Rng::uniform_int(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::binomial(std::int64_t n, double p) {
  CID_ENSURE(n >= 0, "binomial requires n >= 0");
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0) return 0;
  if (p == 1.0) return n;

  // Exploit symmetry so the working probability is <= 1/2.
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double mean = static_cast<double>(n) * p;
  if (n <= 32) {
    // bernoulli(p) per trial, as one integer compare on the raw draw:
    // uniform() < p iff (x >> 11) < ceil(p * 2^53) (see rng.hpp).
    const auto threshold = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    std::int64_t k = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      k += static_cast<std::int64_t>((gen_() >> 11) < threshold);
    }
    return k;
  }
  if (mean < 12.0) return binomial_inversion(n, p);
  return binomial_btrs(n, p);
}

std::int64_t Rng::binomial_inversion(std::int64_t n, double p) {
  // CDF inversion starting from k = 0; expected work O(np + 1).
  const double q = 1.0 - p;
  double u = uniform();
  // k = 0 without pow: u < pow_floor(q, n) <= f0 (see rng.hpp).
  if (u < detail::pow_floor(q, static_cast<double>(n))) return 0;
  const double s = p / q;
  const double f0 = std::pow(q, static_cast<double>(n));
  // Cap the walk generously above the mean; restart on the (measure-zero
  // in exact arithmetic, tiny in floating point) event of tail rounding.
  const std::int64_t cap =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(
                                    static_cast<double>(n) * p + 64.0 +
                                    16.0 * std::sqrt(static_cast<double>(n) *
                                                     p * q)));
  for (;;) {
    double f = f0;
    for (std::int64_t k = 0; k <= cap; ++k) {
      if (u < f) return k;
      u -= f;
      f *= s * static_cast<double>(n - k) / static_cast<double>(k + 1);
    }
    u = uniform();
  }
}

std::int64_t Rng::binomial_btrs(std::int64_t n, double p) {
  // BTRS: transformed rejection with squeeze (W. Hormann, "The generation of
  // binomial random variates", JSCS 46, 1993). Valid for n*p >= 10, p <= 1/2.
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1.0) * p);

  // lgamma_r, not std::lgamma: std::lgamma writes the global signgam, a
  // data race between trial threads. Both return the same values.
  auto lgamma1p = [](double x) {
    int sign = 0;
    return ::lgamma_r(x + 1.0, &sign);
  };
  const double h = lgamma1p(m) + lgamma1p(nd - m);

  for (;;) {
    double u = uniform() - 0.5;
    double v = uniform();
    double us = 0.5 - std::abs(u);
    double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kd);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double t =
        h - lgamma1p(kd) - lgamma1p(nd - kd) + (kd - m) * lpq;
    if (v <= t) return static_cast<std::int64_t>(kd);
  }
}

std::vector<std::int64_t> Rng::multinomial(std::int64_t n,
                                           std::span<const double> probs) {
  std::vector<std::int64_t> counts(probs.size(), 0);
  multinomial(n, probs, counts);
  return counts;
}

void Rng::multinomial(std::int64_t n, std::span<const double> probs,
                      std::span<std::int64_t> out) {
  CID_ENSURE(n >= 0, "multinomial requires n >= 0");
  CID_ENSURE(out.size() == probs.size(),
             "multinomial output span must match the probability count");
  std::fill(out.begin(), out.end(), std::int64_t{0});
  double remaining = 1.0;
  std::int64_t left = n;
  for (std::size_t i = 0; i < probs.size() && left > 0; ++i) {
    const double pi = probs[i];
    // Per-category argument check demoted to debug builds: this runs once
    // per (origin, destination) pair per round and the engines validate
    // their probability rows under the same CID_DCHECK policy.
    CID_DCHECK(pi >= -1e-12, "multinomial probabilities must be >= 0");
    if (pi <= 0.0) continue;
    // Conditional probability of category i given not in categories < i.
    const double cond =
        remaining <= 0.0 ? 1.0 : std::min(1.0, pi / remaining);
    out[i] = binomial(left, cond);
    left -= out[i];
    remaining -= pi;
  }
}

std::size_t Rng::categorical(std::span<const double> weights) {
  CID_ENSURE(!weights.empty(), "categorical requires non-empty weights");
  double total = 0.0;
  for (double w : weights) {
    CID_ENSURE(w >= 0.0, "categorical weights must be >= 0");
    total += w;
  }
  CID_ENSURE(total > 0.0, "categorical weights must not all be zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace cid
