#include "rng.hh"

#include "logging.hh"

namespace rowhammer::util
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::operator()()
{
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

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo > hi");
    const std::uint64_t span = hi - lo;
    if (span == ~0ULL)
        return (*this)();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t bound = span + 1;
    const std::uint64_t limit = (~0ULL) - ((~0ULL) % bound) - 1;
    std::uint64_t draw;
    do {
        draw = (*this)();
    } while (draw > limit);
    return lo + draw % bound;
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::uint64_t
Rng::poisson(double mean)
{
    if (mean < 0.0)
        panic("Rng::poisson: negative mean");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation for large means (accurate to the uses here).
    const double draw = normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

Rng
Rng::split(std::uint64_t salt)
{
    const std::uint64_t a = (*this)();
    const std::uint64_t b = (*this)();
    return Rng(a ^ rotl(b, 31) ^ (salt * 0x9e3779b97f4a7c15ULL));
}

} // namespace rowhammer::util
