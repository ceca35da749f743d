#include "rng.hh"

#include <cmath>

namespace sos {

double
Rng::exponential(double mean)
{
    SOS_ASSERT(mean > 0.0);
    // Inversion; clamp the uniform away from 0 to avoid log(0).
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

std::uint64_t
Rng::probabilityThreshold(double p, int bits)
{
    SOS_ASSERT(bits > 0 && bits <= 53);
    const double scale = std::ldexp(1.0, bits);
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return static_cast<std::uint64_t>(scale);
    return static_cast<std::uint64_t>(std::ceil(p * scale));
}

std::uint64_t
Rng::geometric(double mean)
{
    SOS_ASSERT(mean >= 1.0);
    const double value = exponential(mean);
    const double rounded = std::floor(value) + 1.0;
    return static_cast<std::uint64_t>(rounded);
}

} // namespace sos
