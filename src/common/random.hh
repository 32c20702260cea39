/**
 * @file
 * Deterministic pseudo-random number generation and the distributions
 * the reproduction depends on.
 *
 * Everything in this library is seeded explicitly so that every test,
 * bench, and example is bit-reproducible across runs and machines. The
 * generator is xoshiro256**, seeded through SplitMix64 as its authors
 * recommend.
 */

#ifndef MEMCON_COMMON_RANDOM_HH
#define MEMCON_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

namespace memcon
{

/** One step of the SplitMix64 sequence; also used as a cheap hash. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Stateless 64-bit mix of a value (SplitMix64 finalizer). */
std::uint64_t hashMix64(std::uint64_t value);

/**
 * Derive the seed of one task of a sweep campaign from the campaign
 * seed and the task's index. Every parallel experiment runner uses
 * this derivation, which makes each task's random stream a pure
 * function of (campaign seed, task index) - independent of thread
 * count, scheduling, and which shard of a campaign executes it.
 */
std::uint64_t deriveTaskSeed(std::uint64_t campaign_seed,
                             std::uint64_t task_index);

/**
 * Deterministic xoshiro256** generator with the samplers used across
 * the library. Cheap to copy; independent streams are derived by
 * seeding with distinct values.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1);

    /** Re-seed the generator, restarting its sequence. */
    void seed(std::uint64_t seed);

    /** @return the next raw 64-bit output. */
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, bound) using rejection. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** @return true with the given probability. */
    bool chance(double probability);

    /**
     * Sample a Pareto (type I) variate.
     *
     * P(X > x) = (x_min / x)^alpha for x >= x_min, the heavy-tailed
     * distribution the paper shows write intervals follow.
     *
     * @param x_min scale (minimum value)
     * @param alpha tail index; smaller means heavier tail
     */
    double pareto(double x_min, double alpha);

    /** Sample an exponential variate with the given mean. */
    double exponential(double mean);

    /** Sample a standard normal variate (Box-Muller). */
    double gaussian();

    /** Sample a normal variate with given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Sample a Poisson variate with the given rate (Knuth/normal). */
    std::uint64_t poisson(double lambda);

    /**
     * Sample a Zipf-distributed rank in [0, n) with exponent s, used
     * for page-popularity skew in trace generation.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** The four state words, so a generator can be saved mid-stream. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    /** Resume from state() words. */
    void
    setState(const std::array<std::uint64_t, 4> &words)
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = words[i];
    }

  private:
    std::uint64_t s_[4];
};

} // namespace memcon

#endif // MEMCON_COMMON_RANDOM_HH
