// Deterministic, seedable random number generation for simulations.
//
// All stochastic behaviour in CAPMAN flows through Rng so that every
// experiment is reproducible from a single 64-bit seed. The core generator
// is xoshiro256**, seeded via splitmix64 (the recommended pairing).
#pragma once

#include <array>
#include <cstdint>

namespace capman::util {

/// xoshiro256** PRNG with distribution helpers used by the workload
/// generators (uniform, normal, exponential, Pareto).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box-Muller (cached spare).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given rate lambda (mean 1/lambda).
  double exponential(double lambda);

  /// Pareto (heavy-tailed) with minimum xm > 0 and shape alpha > 0.
  /// Used for skewed inter-arrival gaps (paper Section III: "arrivals of
  /// software demands are frequent with a skewed distribution").
  double pareto(double xm, double alpha);

  /// Bernoulli trial.
  bool chance(double p);

  /// Split off an independent stream (for parallel components).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace capman::util
