/**
 * @file
 * Extracts a detector error model from a circuit.
 *
 * Every error channel is decomposed into elementary Pauli injections
 * (an X or Z flip on one qubit at one circuit position). One backward
 * sweep over the circuit finds what each injection flips. Per qubit it
 * keeps the detectors and observables that an X flip and a Z flip at
 * the current point would toggle: a measurement toggles its record's
 * detectors and observables into the X set (Z basis) or the Z set (X
 * basis), a reset clears both sets, and a CX(c, t) folds X(t) into
 * X(c) and Z(c) into Z(t). Channel components (e.g. the 15 Paulis of
 * DEPOLARIZE2) are then synthesized in forward op order as XOR
 * combinations of their injections' signatures. Components with
 * p <= 0 or an empty signature are dropped, and identical signatures
 * merge (dem.h) in order of first appearance. The merge fold is
 * compiled without multiply-add contraction, so a DEM has the same
 * bits on every host.
 */

#ifndef CYCLONE_DEM_DEM_BUILDER_H
#define CYCLONE_DEM_DEM_BUILDER_H

#include "circuit/circuit.h"
#include "dem/dem.h"

namespace cyclone {

/** Build the detector error model of a noisy circuit. */
DetectorErrorModel buildDetectorErrorModel(const Circuit& circuit);

} // namespace cyclone

#endif // CYCLONE_DEM_DEM_BUILDER_H
