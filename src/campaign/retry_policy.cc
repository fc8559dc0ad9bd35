#include "campaign/retry_policy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "campaign/content_hash.h"

namespace cyclone {

namespace {

/** Seed of the deterministic jitter stream. */
constexpr uint64_t kJitterSeed = 0x9e3779b97f4a7c15ull;

} // namespace

double
RetryPolicy::delayFor(size_t attempt)
{
    if (attempt == 0)
        attempt = 1;
    // Exponential growth, capped; the exponent is clamped so huge
    // attempt numbers cannot overflow to inf before the cap applies.
    const double exp2k =
        std::pow(2.0, static_cast<double>(std::min<size_t>(
                          attempt - 1, 60)));
    const double delay =
        std::min(kMaxDelaySeconds, kBaseDelaySeconds * exp2k);
    // Deterministic jitter in [-kJitterFraction, +kJitterFraction]:
    // hash (seed, attempt) to a uniform in [0, 1).
    const uint64_t h = HashStream()
                           .absorb(kJitterSeed)
                           .absorb(static_cast<uint64_t>(attempt))
                           .digest();
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53; // [0, 1)
    return delay * (1.0 + kJitterFraction * (2.0 * u - 1.0));
}

void
retrySleep(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

} // namespace cyclone
