#include "campaign/retry_policy.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace cyclone {

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
    return std::min(kMaxDelaySeconds, kBaseDelaySeconds * exp2k);
}

void
retrySleep(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

} // namespace cyclone
