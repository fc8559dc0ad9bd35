/**
 * @file
 * Detector error model (DEM): the decoding-graph representation of a
 * noisy circuit.
 *
 * Each mechanism is an independent Bernoulli error event with a
 * probability, a set of detectors it flips, and a mask of logical
 * observables it flips. Mechanisms with identical signatures are
 * merged with probability combination p = p1 (1 - p2) + p2 (1 - p1),
 * exactly as Stim does when folding a circuit into a DEM.
 */

#ifndef CYCLONE_DEM_DEM_H
#define CYCLONE_DEM_DEM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cyclone {

/** One independent error mechanism. */
struct DemMechanism
{
    double probability = 0.0;
    /** Sorted detector indices flipped by this mechanism. */
    std::vector<uint32_t> detectors;
    /** Bit mask of flipped logical observables. */
    uint64_t observables = 0;
};

/** A complete detector error model. */
struct DetectorErrorModel
{
    size_t numDetectors = 0;
    size_t numObservables = 0;
    std::vector<DemMechanism> mechanisms;

    /** Sum of mechanism probabilities (expected error count/shot). */
    double expectedErrorsPerShot() const;
};

} // namespace cyclone

#endif // CYCLONE_DEM_DEM_H
