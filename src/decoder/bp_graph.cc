#include "decoder/bp_graph.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace cyclone {

BpGraph::BpGraph(const DetectorErrorModel& dem)
    : numChecks(dem.numDetectors), numVars(dem.mechanisms.size())
{
    prior.resize(numVars);
    std::vector<size_t> check_degree(numChecks, 0);

    varOffset.assign(numVars + 1, 0);
    for (size_t v = 0; v < numVars; ++v) {
        const DemMechanism& m = dem.mechanisms[v];
        double p = std::clamp(m.probability, 1e-14, 1.0 - 1e-14);
        prior[v] = static_cast<float>(std::log((1.0 - p) / p));
        varOffset[v + 1] = varOffset[v] + m.detectors.size();
        for (const uint32_t d : m.detectors) {
            CYCLONE_ASSERT(d < numChecks, "mechanism detector "
                           << d << " out of range");
            ++check_degree[d];
        }
    }
    numEdges = varOffset.back();

    checkOffset.assign(numChecks + 1, 0);
    for (size_t c = 0; c < numChecks; ++c) {
        checkOffset[c + 1] = checkOffset[c] + check_degree[c];
        maxCheckDegree = std::max(maxCheckDegree, check_degree[c]);
    }

    // Fill the check-side CSR in var order, recording each var-side
    // edge's check-side slot as it lands. A variable's edges go in
    // ascending check order; a detector list that is not already
    // ascending (the DEM builder always sorts) is sorted in a copy.
    checkEdgeVar.resize(numEdges);
    checkSlotOfVarEdge.resize(numEdges);
    std::vector<size_t> check_cursor(numChecks, 0);
    std::vector<uint32_t> sorted;
    for (size_t v = 0; v < numVars; ++v) {
        const std::vector<uint32_t>* detectors =
            &dem.mechanisms[v].detectors;
        if (!std::is_sorted(detectors->begin(), detectors->end())) {
            sorted = *detectors;
            std::sort(sorted.begin(), sorted.end());
            detectors = &sorted;
        }
        for (size_t j = 0; j < detectors->size(); ++j) {
            const uint32_t c = (*detectors)[j];
            const size_t slot = checkOffset[c] + check_cursor[c]++;
            checkEdgeVar[slot] = static_cast<uint32_t>(v);
            checkSlotOfVarEdge[varOffset[v] + j] =
                static_cast<uint32_t>(slot);
        }
    }
}

} // namespace cyclone
