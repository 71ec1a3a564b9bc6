// Deterministic random-number substrate for the dynamics engines.
//
// The concurrent engines draw very large numbers of Bernoulli/binomial/
// multinomial variates per round; std::mt19937_64 plus the standard
// distributions would work but ties reproducibility to a particular
// standard-library version. We therefore ship our own generator
// (xoshiro256++, seeded via SplitMix64) and our own exact samplers:
//
//   * binomial(n, p): exact for all n, p. Three regimes: direct Bernoulli
//     summation for small n, CDF inversion for small mean, and the BTRS
//     transformed-rejection sampler (Hormann, 1993) for large mean.
//   * multinomial(n, probs): sequential conditional binomials.
//
// All samplers are exact (not approximations): the concurrent round law of
// the aggregate engine must equal the per-player protocol law exactly, which
// the tests verify statistically.
//
// The draw phase of every engine is dominated by two binomial regimes, and
// each has a fast path that consumes exactly the uniforms the plain code
// consumes and returns exactly its value, so no persisted byte depends on
// it (tests/rng_oracle.hpp keeps the plain code as a test oracle):
//
//   * n <= 32, Bernoulli summation. `uniform() < p` compares
//     (x >> 11) * 2^-53 with p, where x is the raw 64-bit draw. Scaling by
//     2^53 is exact (also for subnormal p; p <= 1/2 cannot overflow), and
//     for an integer m, m < y holds iff m < ceil(y). So the loop compares
//     (x >> 11) with the integer T = ceil(p * 2^53), hoisted out of the
//     loop, and adds the comparisons without branches.
//   * Inversion (n > 32, n*p < 12), which returns k = 0 almost always.
//     It draws its first uniform u before computing f0 = pow(q, n): if u
//     lies below detail::pow_floor(q, n), a proven lower bound on the
//     computed f0, the walk would return 0 at its first step, so it
//     returns 0 without calling pow. Otherwise the walk runs as before with
//     the same u. The bound and its margin are derived at pow_floor.
//
// The generator step, uniform() and bernoulli() are defined in this header
// so the engines' per-player loops and the samplers inline them.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace cid {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// (Public so seeding discipline is testable and reusable.)
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 — fast, high-quality 64-bit generator.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// 2^128 jump: produces a generator whose stream is disjoint from the
  /// parent for 2^128 draws. Used to derive independent per-trial streams.
  void jump() noexcept;

  /// The full 256-bit generator state. Together with set_state this makes
  /// the stream durable: a saved state restored elsewhere continues the
  /// exact draw sequence (the persistence subsystem checkpoints it).
  std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores a state previously obtained from state(). Precondition: the
  /// words are not all zero (the all-zero state is a xoshiro fixed point);
  /// enforced by clamping word 0 to 1 in that degenerate case.
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    for (int i = 0; i < 4; ++i) s_[i] = s[static_cast<std::size_t>(i)];
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

namespace detail {

/// A lower bound on std::pow(q, n) for q in [1/2, 1] and integral n >= 1;
/// it may be negative (useless) once n * (1 - q) >= 1. It lets the
/// inversion accept k = 0 without calling pow: u < pow_floor(q, n) implies
/// u < pow(q, n).
///
/// Let d = 1 - q. It is exact by Sterbenz (q >= 1/2), and it is a multiple
/// of 2^-53 because every double in [1/2, 1] is. Bernoulli's inequality
/// gives q^n = (1 - d)^n >= 1 - n*d for real n >= 1. The computed bound
/// has three error sources:
///   1. n*d. n is an integer and d = j * 2^-53, so n*d = (n*j) * 2^-53.
///      While n*d < 1, n*j < 2^53 and the product is exact; once
///      n*d >= 1 the bound is <= 0 and never accepts. No error.
///   2. 1 - n*d. For n*d < 1 this is (2^53 - n*j) * 2^-53 with
///      0 < 2^53 - n*j <= 2^53, exactly representable. No error.
///   3. pow. glibc's pow is within 1 ulp of q^n. Since q^n <= 1 that ulp
///      is at most 2^-53, so pow(q, n) >= q^n - 2^-53 >= 1 - n*d - 2^-53.
/// The margin is therefore one 2^-53, independent of n: n enters only
/// through n*d, which is exact. (Using p in place of d would add an
/// error n * |p - d| <= n * 2^-54 that grows with n.) Subtracting the
/// margin is exact as well: 1 - n*d is a positive multiple of 2^-53.
inline double pow_floor(double q, double n) noexcept {
  const double d = 1.0 - q;
  return (1.0 - n * d) - 0x1.0p-53;
}

}  // namespace detail

/// Convenience facade bundling the generator with the samplers the
/// simulation engines need. Cheap to copy; copying forks the stream state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) noexcept : gen_(seed) {}

  /// Derive an independent child stream (seed ^ golden-ratio mixing of key).
  [[nodiscard]] Rng split(std::uint64_t key) noexcept;

  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53-bit mantissa path: uniform on [0, 1) with full double resolution.
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// Precondition: bound > 0.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  /// Bernoulli(p), exact for p in [0, 1]; p outside is clamped.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exact Binomial(n, p). Precondition: n >= 0, 0 <= p <= 1 (clamped).
  std::int64_t binomial(std::int64_t n, double p);

  /// Exact multinomial: distributes n trials over probs (which may sum to
  /// s <= 1; the remaining mass 1-s is an implicit "no event" category whose
  /// count is not returned). Returns counts aligned with probs.
  std::vector<std::int64_t> multinomial(std::int64_t n,
                                        std::span<const double> probs);

  /// Allocation-free multinomial: writes the counts into `out` (which must
  /// have probs.size() entries). Identical draw algorithm and RNG
  /// consumption as the allocating overload — the engines' reusable
  /// RoundWorkspace calls this one every round.
  void multinomial(std::int64_t n, std::span<const double> probs,
                   std::span<std::int64_t> out);

  /// Uniform element index from non-empty weights (linear scan).
  std::size_t categorical(std::span<const double> weights);

  Xoshiro256pp& generator() noexcept { return gen_; }

  /// Durable stream state (see Xoshiro256pp::state): Rng carries no other
  /// mutable state, so save/restore of these four words round-trips the
  /// sampler streams exactly, mid-binomial or mid-multinomial included.
  std::array<std::uint64_t, 4> state() const noexcept { return gen_.state(); }
  void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    gen_.set_state(s);
  }

 private:
  std::int64_t binomial_inversion(std::int64_t n, double p);
  std::int64_t binomial_btrs(std::int64_t n, double p);

  Xoshiro256pp gen_;
};

}  // namespace cid
