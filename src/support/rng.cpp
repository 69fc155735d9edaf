#include "support/rng.hpp"

#include <cmath>

namespace klex::support {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& lane : state_) {
    lane = splitmix64(s);
  }
  // xoshiro requires a nonzero state; splitmix64 makes all-zero output
  // astronomically unlikely but we guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng::result_type Rng::operator()() {
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

std::uint64_t Rng::next_below(std::uint64_t bound) {
  KLEX_CHECK(bound > 0, "next_below requires a positive bound");
  // Lemire-style rejection: accept when the low 64 bits of the 128-bit
  // product do not fall into the biased zone [0, 2^64 mod bound). That
  // zone lies below `bound`, so a low part >= bound is accepted without
  // computing it (the division runs on about bound / 2^64 of the draws).
  std::uint64_t raw = (*this)();
  __uint128_t product = static_cast<__uint128_t>(raw) * bound;
  if (static_cast<std::uint64_t>(product) < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (static_cast<std::uint64_t>(product) < threshold) {
      raw = (*this)();
      product = static_cast<__uint128_t>(raw) * bound;
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  KLEX_CHECK(lo <= hi, "next_in requires lo <= hi, got ", lo, " > ", hi);
  std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_exponential(double mean) {
  KLEX_CHECK(mean > 0.0, "exponential mean must be positive");
  double u = next_double();
  // Avoid log(0); next_double() < 1 so 1-u > 0.
  return -mean * std::log1p(-u);
}

std::size_t Rng::pick_index(std::size_t size) {
  KLEX_CHECK(size > 0, "pick_index requires a non-empty range");
  return static_cast<std::size_t>(next_below(size));
}

Rng Rng::split(std::uint64_t tag) {
  std::uint64_t mix = (*this)() ^ (tag * 0xD2B74407B1CE6E93ull);
  return Rng(mix);
}

}  // namespace klex::support
