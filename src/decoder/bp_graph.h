/**
 * @file
 * Shared Tanner-graph storage for the BP decoders.
 *
 * Both the scalar BpDecoder and the lane-parallel BpWaveDecoder walk
 * the same detector graph: a variable-side CSR (for the posterior
 * gather) and a check-side CSR (for the check-message pass, the
 * scatter form of the posterior pass and syndrome verification),
 * sharing edge ids through the var-CSR -> check-CSR slot
 * permutation. Each variable's edges are laid out in ascending check
 * order, so streaming the check CSR adds a variable's messages in
 * exactly its gather order: the scalar gather and the wave scatter
 * sum the same floats in the same order. The graph is immutable after
 * construction, so one BpGraph is built per detector error model and
 * shared by every decoder view of it (BpOsdDecoder keeps one for its
 * scalar core and its wave kernel).
 */

#ifndef CYCLONE_DECODER_BP_GRAPH_H
#define CYCLONE_DECODER_BP_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dem/dem.h"

namespace cyclone {

/** Immutable CSR Tanner graph + priors of a detector error model. */
struct BpGraph
{
    explicit BpGraph(const DetectorErrorModel& dem);

    size_t numChecks = 0;
    size_t numVars = 0;
    size_t numEdges = 0;
    /** Largest check degree; sizes per-check scratch once, up front. */
    size_t maxCheckDegree = 0;

    /** Prior LLR log((1-p)/p) per variable. */
    std::vector<float> prior;

    // Variable-side CSR: edges of var v are varOffset[v] ..
    // varOffset[v+1), in ascending check order; checkSlotOfVarEdge
    // maps each to its slot in the check-side CSR (where the messages
    // live).
    std::vector<size_t> varOffset;
    std::vector<uint32_t> checkSlotOfVarEdge;

    // Check-side CSR: edges of check c are checkOffset[c] ..
    // checkOffset[c+1), each naming its variable.
    std::vector<size_t> checkOffset;
    std::vector<uint32_t> checkEdgeVar;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_GRAPH_H
