/**
 * @file
 * End-to-end tests of the codesign API: the paper's headline
 * relationships, measured on the real stack.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "core/explorer.h"
#include "core/overhead.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"
#include "run_task.h"

namespace cyclone {
namespace {

TEST(Codesign, ArchitectureNames)
{
    EXPECT_STREQ(architectureName(Architecture::BaselineGrid),
                 "baseline-grid");
    EXPECT_STREQ(architectureName(Architecture::Cyclone), "cyclone");
    EXPECT_STREQ(architectureName(Architecture::MeshJunction),
                 "mesh-junction");
}

TEST(Codesign, CycloneBeatsBaselineOnHgp225)
{
    // The headline result: Cyclone is substantially faster than the
    // baseline grid on [[225,9,6]] (the paper reports up to 4x
    // across codes).
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;
    cfg.architecture = Architecture::Cyclone;
    CompileResult cy = compileCodesign(code, sched, cfg);
    cfg.architecture = Architecture::BaselineGrid;
    CompileResult bl = compileCodesign(code, sched, cfg);
    EXPECT_GT(bl.execTimeUs, 2.0 * cy.execTimeUs);
    // Spatial efficiency: fewer traps and half the ancillas.
    EXPECT_LT(cy.numTraps, bl.numTraps);
    EXPECT_EQ(cy.numAncilla * 2, bl.numAncilla);
    // Spacetime gap (Fig. 16) is large.
    EXPECT_GT(bl.spacetimeCost(), 5.0 * cy.spacetimeCost());
}

TEST(Codesign, ConfusionMatrixOrdering)
{
    // Fig. 6: {dynamic, static} x {circle, grid}. Cyclone (dynamic +
    // circle) is best; static EJF on a circle is the worst; dynamic
    // on a grid loses to static on a grid.
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;

    cfg.architecture = Architecture::Cyclone;
    const double dynamic_circle =
        compileCodesign(code, sched, cfg).execTimeUs;
    cfg.architecture = Architecture::BaselineGrid;
    const double static_grid =
        compileCodesign(code, sched, cfg).execTimeUs;
    cfg.architecture = Architecture::DynamicGrid;
    const double dynamic_grid =
        compileCodesign(code, sched, cfg).execTimeUs;
    cfg.architecture = Architecture::RingEjf;
    const double static_circle =
        compileCodesign(code, sched, cfg).execTimeUs;

    EXPECT_LT(dynamic_circle, static_grid);
    EXPECT_LT(static_grid, dynamic_grid);
    EXPECT_LT(dynamic_grid, static_circle);
}

TEST(Codesign, AlternateGridBetweenBaselineAndCyclone)
{
    // Fig. 19 ordering.
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;
    cfg.architecture = Architecture::Cyclone;
    const double cy = compileCodesign(code, sched, cfg).execTimeUs;
    cfg.architecture = Architecture::AlternateGrid;
    const double alt = compileCodesign(code, sched, cfg).execTimeUs;
    cfg.architecture = Architecture::BaselineGrid;
    const double bl = compileCodesign(code, sched, cfg).execTimeUs;
    EXPECT_LT(cy, alt);
    EXPECT_LT(alt, bl);
}

TEST(Codesign, CompiledLatencyCouplesIntoNoise)
{
    // compileLatency: the task compiles one Cyclone round and runs its
    // memory experiment at that round's makespan.
    CssCode code = makeHgpCode(ClassicalCode::repetition(3), 3);
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;
    cfg.architecture = Architecture::Cyclone;
    const CompileResult compiled = compileCodesign(code, sched, cfg);
    TaskSpec task = memoryTask("surface3", 2e-3, 3, 150);
    task.compileLatency = true;
    task.architecture = Architecture::Cyclone;
    const TaskResult r = runTask(task, 3);
    EXPECT_GT(r.roundLatencyUs, 0.0);
    EXPECT_EQ(r.roundLatencyUs, compiled.execTimeUs);
    EXPECT_EQ(r.logicalErrorRate.trials, 150u);
    EXPECT_GT(compiled.spacetimeCost(), 0.0);
}

TEST(Codesign, CycloneLowerLerThanBaselineUnderLatency)
{
    // The mechanism behind Figs. 14-15: identical base noise, but the
    // baseline's longer rounds inject more decoherence, so its LER is
    // higher. Use the small surface code for fast Monte Carlo, with
    // latencies in the regime where decoherence dominates.
    const TaskResult fast_r = runTask(
        memoryTask("surface3", 1e-3, 3, 1500, 60000.0), 11); // Cyclone-like
    const TaskResult slow_r = runTask(
        memoryTask("surface3", 1e-3, 3, 1500, 600000.0), 11); // roadblocked
    EXPECT_LT(fast_r.logicalErrorRate.rate,
              slow_r.logicalErrorRate.rate);
}

TEST(Overhead, DacCounts)
{
    CssCode code = catalog::bb72();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;
    cfg.architecture = Architecture::BaselineGrid;
    CompileResult bl = compileCodesign(code, sched, cfg);
    cfg.architecture = Architecture::Cyclone;
    CompileResult cy = compileCodesign(code, sched, cfg);

    ControlOverhead grid = gridControlOverhead(bl);
    ControlOverhead ring = cycloneControlOverhead(cy);
    // Grid: one DAC per trap (O(n^2) control); Cyclone: constant.
    EXPECT_EQ(grid.dacChannels, bl.numTraps);
    EXPECT_EQ(ring.dacChannels, 1u);
    EXPECT_GT(grid.dacChannels, 10 * ring.dacChannels);
}

TEST(Codesign, GridsSufficeForTopologicalCodes)
{
    // Section II-A4: "for topological codes such as the Surface and
    // Color Codes, the gridlike QCCD structure is already fast and
    // sufficient" — the baseline-vs-Cyclone gap must be much smaller
    // for a surface code than for a size-matched HGP code, because
    // local stabilizers cluster-map with short routes.
    CssCode surface = catalog::surface(11); // [[221,1,11]], n ~ 225
    CssCode hgp = catalog::hgp225();
    SyndromeSchedule surf_sched = makeXThenZSchedule(surface);
    SyndromeSchedule hgp_sched = makeXThenZSchedule(hgp);

    CodesignConfig cfg;
    cfg.architecture = Architecture::BaselineGrid;
    const double surf_grid =
        compileCodesign(surface, surf_sched, cfg).execTimeUs;
    const double hgp_grid =
        compileCodesign(hgp, hgp_sched, cfg).execTimeUs;
    cfg.architecture = Architecture::Cyclone;
    const double surf_cyc =
        compileCodesign(surface, surf_sched, cfg).execTimeUs;
    const double hgp_cyc =
        compileCodesign(hgp, hgp_sched, cfg).execTimeUs;

    const double surf_gap = surf_grid / surf_cyc;
    const double hgp_gap = hgp_grid / hgp_cyc;
    EXPECT_LT(surf_gap, hgp_gap)
        << "surface " << surf_grid << "/" << surf_cyc << " vs hgp "
        << hgp_grid << "/" << hgp_cyc;
    // The non-topological code is the one that needs the codesign.
    EXPECT_GT(hgp_gap, 2.0);
}

TEST(Codesign, SurfaceCatalogParameters)
{
    CssCode code = catalog::surface(5);
    EXPECT_EQ(code.numQubits(), 41u);
    EXPECT_EQ(code.numLogical(), 1u);
    EXPECT_EQ(code.nominalDistance(), 5u);
    EXPECT_LE(code.maxXWeight(), 4u);
}

TEST(Codesign, MeshJunctionDispatch)
{
    CssCode code = makeHgpCode(ClassicalCode::repetition(3), 3);
    SyndromeSchedule sched = makeXThenZSchedule(code);
    CodesignConfig cfg;
    cfg.architecture = Architecture::MeshJunction;
    CompileResult r = compileCodesign(code, sched, cfg);
    EXPECT_EQ(r.compilerName, "mesh-junction");
    EXPECT_EQ(r.trapRoadblocks, 0u);
}

} // namespace
} // namespace cyclone
