/**
 * @file
 * Recorded reference values the benchmark checks its outputs against.
 *
 * Compiles are deterministic, so their simulated round makespan and op
 * count must match exactly. Logical error rates are Monte-Carlo
 * estimates, so a task passes when its failure count is plausible under
 * the recorded rate: the reference rate is widened by kRefSigmas of its
 * own standard error, and the observed count must not fall in a
 * binomial tail smaller than kLerTailProbability at either edge. That
 * is loose enough for a decoder change that keeps the LER within the
 * statistics (for instance min-sum in place of product-sum BP) and
 * tight enough to catch a decoder that stops correcting.
 *
 * The LER references were measured with campaign_runner at a fixed
 * budget of the recorded shot count, on seeds of their own, with each
 * workload's decoder (product-sum for bb72 at 1e-3, min-sum capped at
 * 16 iterations for bb72 at 5e-4, min-sum for hgp225).
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cmath>
#include <cstddef>
#include <string>

namespace perfbench {

/** SIMD-ladder rung the recorded numbers were measured on. */
inline constexpr const char* kReferenceBackend = "avx512";

inline constexpr double kLerTailProbability = 1e-6;
inline constexpr double kRefSigmas = 3.0;

struct CompileReference
{
    const char* label; ///< "<code>/<architecture>"
    double roundUs;    ///< Simulated round makespan, us (exact).
    size_t ops;        ///< TimedSchedule ops (exact).
};

inline constexpr CompileReference kCompileReferences[] = {
    {"bb72/cyclone", 52820.0, 23976},
    {"hgp225/cyclone", 152420.0, 212112},
    {"hgp225/baseline-grid", 491150.0, 40098},
};

struct LerReference
{
    const char* key; ///< "<code>/<architecture>"
    double p;
    size_t shots;
    size_t failures;
};

inline constexpr LerReference kLerReferences[] = {
    {"bb72/cyclone", 1e-3, 8192, 97},
    {"bb72/cyclone", 5e-4, 65536, 59},
    {"hgp225/cyclone", 5e-4, 4096, 94},
    {"hgp225/cyclone", 1e-3, 4096, 555},
    {"hgp225/cyclone", 2e-3, 4096, 3099},
    {"hgp225/baseline-grid", 5e-4, 4096, 501},
    {"hgp225/baseline-grid", 1e-3, 4096, 2426},
    {"hgp225/baseline-grid", 2e-3, 4096, 4080},
};

inline const CompileReference*
findCompileReference(const std::string& label)
{
    for (const CompileReference& r : kCompileReferences)
        if (label == r.label)
            return &r;
    return nullptr;
}

inline const LerReference*
findLerReference(const std::string& key, double p)
{
    for (const LerReference& r : kLerReferences)
        if (key == r.key && std::fabs(p - r.p) <= 1e-12 && r.shots > 0)
            return &r;
    return nullptr;
}

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
