#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace memcon
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashMix64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitmix64(state);
}

std::uint64_t
deriveTaskSeed(std::uint64_t campaign_seed, std::uint64_t task_index)
{
    // Two SplitMix64 steps: one from the campaign seed, one from the
    // golden-ratio-strided task index, so neighbouring indices (and
    // neighbouring campaign seeds) land in unrelated streams.
    std::uint64_t state = campaign_seed ^ 0xa0761d6478bd642fULL;
    std::uint64_t mixed = splitmix64(state);
    state = mixed ^ (task_index * 0x9e3779b97f4a7c15ULL);
    return splitmix64(state);
}

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random bits mapped to [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    panic_if(bound == 0, "uniformInt bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::chance(double probability)
{
    if (probability <= 0.0)
        return false;
    if (probability >= 1.0)
        return true;
    return uniform() < probability;
}

double
Rng::pareto(double x_min, double alpha)
{
    panic_if(x_min <= 0.0 || alpha <= 0.0, "pareto parameters must be > 0");
    // Inverse CDF: x = x_min * U^(-1/alpha).
    double u = 1.0 - uniform(); // in (0, 1]
    return x_min * std::pow(u, -1.0 / alpha);
}

double
Rng::exponential(double mean)
{
    panic_if(mean <= 0.0, "exponential mean must be > 0");
    double u = 1.0 - uniform();
    return -mean * std::log(u);
}

double
Rng::gaussian()
{
    // Box-Muller; one value per call keeps the stream position simple.
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

std::uint64_t
Rng::poisson(double lambda)
{
    panic_if(lambda < 0.0, "poisson rate must be >= 0");
    if (lambda == 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth's multiplicative method.
        double l = std::exp(-lambda);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > l);
        return k - 1;
    }
    // Normal approximation for large rates.
    double x = gaussian(lambda, std::sqrt(lambda));
    return x < 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    panic_if(n == 0, "zipf support must be non-empty");
    // Rejection-inversion (Hörmann) would be faster for huge n; this
    // bounded-iteration inversion over the harmonic CDF approximation
    // is enough for trace generation.
    if (s <= 0.0)
        return uniformInt(n);

    // Approximate inverse CDF via the continuous analogue:
    // H(x) = (x^(1-s) - 1) / (1 - s) for s != 1, ln(x) for s == 1.
    double u = uniform();
    double hmax;
    double nd = static_cast<double>(n);
    if (std::abs(s - 1.0) < 1e-9)
        hmax = std::log(nd + 1.0);
    else
        hmax = (std::pow(nd + 1.0, 1.0 - s) - 1.0) / (1.0 - s);

    double h = u * hmax;
    double x;
    if (std::abs(s - 1.0) < 1e-9)
        x = std::exp(h);
    else
        x = std::pow(h * (1.0 - s) + 1.0, 1.0 / (1.0 - s));

    // x lies in [1, n+1); rank r corresponds to x in [r+1, r+2).
    if (x < 1.0)
        x = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(x - 1.0);
    if (rank >= n)
        rank = n - 1;
    return rank;
}

} // namespace memcon
