/**
 * @file
 * Builder for Z-basis quantum memory experiments (Section V-B).
 *
 * The circuit prepares all data qubits in |0>, runs `rounds` noisy
 * syndrome-extraction rounds, then reads out all data qubits
 * transversally. Each round measures all X stabilizers (prep |+>,
 * CX ancilla->data per schedule slice, MX) and then all Z stabilizers
 * (prep |0>, CX data->ancilla, M) — the same X-rotation-then-Z-rotation
 * order Cyclone executes. Detectors compare consecutive stabilizer
 * outcomes; observables are logical-Z representatives evaluated on the
 * final data readout.
 */

#ifndef CYCLONE_CIRCUIT_MEMORY_CIRCUIT_H
#define CYCLONE_CIRCUIT_MEMORY_CIRCUIT_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"
#include "noise/noise_model.h"
#include "noise/pauli_twirl.h"
#include "qec/css_code.h"
#include "qec/schedule.h"

namespace cyclone {

/** Options for buildZMemoryCircuit. */
struct MemoryCircuitOptions
{
    /** Number of noisy syndrome rounds (0 = use the code distance). */
    size_t rounds = 0;

    /** Noise configuration. */
    NoiseModel noise;

    /**
     * Per-data-qubit idle twirls (one per qubit, schedule-derived; see
     * noise/schedule_noise.h). When non-empty this replaces the
     * uniform noise.idle channel: qubit q receives perQubitIdle[q]
     * each round. Size must equal the code's qubit count.
     */
    std::vector<PauliTwirl> perQubitIdle;
};

/**
 * Build the Z-memory experiment circuit for a code.
 *
 * Qubit layout: data qubits [0, n), X ancillas [n, n + mx), Z ancillas
 * [n + mx, n + mx + mz).
 *
 * @param code the CSS code under test
 * @param schedule per-round CX ordering; its slices are projected onto
 *        the X phase and the Z phase (each phase keeps a slice's gates
 *        of its stabilizer kind and skips slices left empty)
 * @param options rounds and noise
 */
Circuit buildZMemoryCircuit(const CssCode& code,
                            const SyndromeSchedule& schedule,
                            const MemoryCircuitOptions& options);

/**
 * Build the X-memory experiment circuit: data prepared in |+>^n, X
 * stabilizers deterministic from round one, transversal X-basis
 * readout, logical-X observables. The dual of buildZMemoryCircuit.
 */
Circuit buildXMemoryCircuit(const CssCode& code,
                            const SyndromeSchedule& schedule,
                            const MemoryCircuitOptions& options);

} // namespace cyclone

#endif // CYCLONE_CIRCUIT_MEMORY_CIRCUIT_H
