/**
 * @file
 * The iteration budget of the differential fuzz tests: 24 by default,
 * or CYCLONE_FUZZ_ITERS when it holds a positive count (CI's deep
 * fuzz steps set 150).
 */

#ifndef CYCLONE_TESTS_FUZZ_ITERATIONS_H
#define CYCLONE_TESTS_FUZZ_ITERATIONS_H

#include <cstddef>
#include <cstdlib>

namespace cyclone {

inline size_t
fuzzIterations()
{
    const char* env = std::getenv("CYCLONE_FUZZ_ITERS");
    if (env != nullptr && env[0] != '\0') {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<size_t>(parsed);
    }
    return 24;
}

} // namespace cyclone

#endif // CYCLONE_TESTS_FUZZ_ITERATIONS_H
