#include "compiler/compiler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "compiler/dynamic_grid.h"
#include "compiler/mesh_junction.h"
#include "qccd/topology_builders.h"

namespace cyclone {

namespace {

/** Baseline grid side: l = ceil(sqrt(n)) (Section V-A). */
size_t
gridSide(const CssCode& code)
{
    return static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(code.numQubits()))));
}

} // namespace

CompileResult
compileCodesign(const CssCode& code, const SyndromeSchedule& schedule,
                const CodesignConfig& config)
{
    const size_t l = gridSide(code);
    EjfOptions ejf = config.ejf;
    switch (config.architecture) {
      case Architecture::BaselineGrid:
        ejf.name = "baseline-ejf";
        return compileEjf(code, schedule,
                          buildBaselineGrid(l, l, config.gridCapacity),
                          ejf);
      case Architecture::AlternateGrid:
        ejf.name = "alternate-grid-ejf";
        return compileEjf(code, schedule,
                          buildAlternateGrid(l, l, config.gridCapacity),
                          ejf);
      case Architecture::DynamicGrid:
        ejf.name = "dynamic-grid";
        return compileDynamicGrid(
            code, schedule, buildBaselineGrid(l, l, config.gridCapacity),
            ejf);
      case Architecture::RingEjf: {
        const size_t x = std::max(code.numXStabs(), code.numZStabs());
        const size_t capacity = (code.numQubits() + x - 1) / x +
            (code.numStabs() + x - 1) / x + 1;
        ejf.name = "ring-ejf";
        ejf.dataPerTrap = (code.numQubits() + x - 1) / x;
        return compileEjf(code, schedule, buildRing(x, capacity), ejf);
      }
      case Architecture::MeshJunction:
        ejf.name = "mesh-junction";
        return compileMeshJunction(code, schedule, ejf);
      case Architecture::Cyclone:
        return compileCyclone(code, config.cyclone);
    }
    CYCLONE_FATAL("unknown architecture");
}

} // namespace cyclone
