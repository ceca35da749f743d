/**
 * @file
 * Deterministic random number generation for simulation.
 *
 * Every stochastic component of the simulator (synthetic address
 * streams, schedule sampling, arrival processes) draws from its own
 * seeded Rng instance so experiments are bit-reproducible and
 * independent components do not perturb each other's streams.
 *
 * The generator is xoshiro256** seeded through SplitMix64, a standard
 * high-quality small-state combination.
 */

#ifndef SOS_COMMON_RNG_HH
#define SOS_COMMON_RNG_HH

#include <cstdint>

#include "logging.hh"

namespace sos {

/** SplitMix64 step, used for seeding and cheap hashing. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix of a value, for deterministic hashing. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    std::uint64_t s = x;
    return splitMix64(s);
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Copyable so that generator state can be checkpointed along with a
 * paused job and resumed exactly where it left off.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
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

    /** Uniform integer in [0, bound). bound must be positive. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        SOS_ASSERT(bound > 0);
        // Multiply-shift rejection-free mapping (Lemire); the tiny bias
        // is irrelevant for simulation workloads.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        SOS_ASSERT(lo <= hi);
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * The integer form of `k * 2^-bits < p` for a @p bits-bit draw k
     * (bits <= 53): it holds exactly when k is below the returned
     * threshold, ceil(p * 2^bits) clamped to [0, 2^bits] (scaling by
     * a power of two is exact). So `(next() >> 11) <
     * probabilityThreshold(p)` draws what chance(p) draws, with the
     * floating-point work done once. NaN, like any p <= 0, gives 0.
     */
    static std::uint64_t probabilityThreshold(double p, int bits = 53);

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /** Geometric-ish positive integer with the given mean (>= 1). */
    std::uint64_t geometric(double mean);

    /** Fisher-Yates shuffle of a random-access container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        for (std::size_t i = c.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i));
            using std::swap;
            swap(c[i - 1], c[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace sos

#endif // SOS_COMMON_RNG_HH
