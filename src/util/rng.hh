/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * All stochastic components of the library (fault-model sampling, PARA's
 * coin flips, workload generation) draw from Rng so that a fixed seed
 * reproduces a full experiment bit-for-bit. The core generator is
 * xoshiro256** (public domain, Blackman & Vigna), chosen over std::mt19937
 * for speed and a guaranteed cross-platform stream.
 */

#ifndef ROWHAMMER_UTIL_RNG_HH
#define ROWHAMMER_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <cmath>

namespace rowhammer::util
{

/**
 * splitmix64 finalizer: a bijective 64-bit mix used to derive
 * independent stream seeds from structured inputs (chip ids, row
 * numbers). Shared so every call site uses the same constants.
 */
std::uint64_t mix64(std::uint64_t x);

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Satisfies UniformRandomBitGenerator so it can also feed <random>
 * distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed via splitmix64 state expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Standard normal via Box-Muller (cached second deviate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Poisson-distributed count with the given mean (>= 0). */
    std::uint64_t poisson(double mean);

    /**
     * Split off an independent child generator. Deterministic: the child
     * stream depends only on this generator's current state and the salt.
     * Used to give each simulated chip / cell region its own stream.
     */
    Rng split(std::uint64_t salt);

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace rowhammer::util

#endif // ROWHAMMER_UTIL_RNG_HH
