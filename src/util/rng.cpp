#include "util/rng.h"

#include <cassert>
#include <cmath>

namespace capman::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Rejection-free multiply-shift; bias negligible for n << 2^64.
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n)) % n;
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_normal_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -std::log(u) / lambda;
}

double Rng::pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return xm / std::pow(u, 1.0 / alpha);
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::split() { return Rng{next_u64() ^ 0xa5a5a5a5deadbeefULL}; }

}  // namespace capman::util
