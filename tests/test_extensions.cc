/**
 * @file
 * Tests for the paper's variant features: the grid-embedded Cyclone
 * of Fig. 11b and the X-basis memory experiment.
 */

#include <gtest/gtest.h>

#include "circuit/frame_simulator.h"
#include "circuit/memory_circuit.h"
#include "compiler/compiler.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"
#include "run_task.h"

namespace cyclone {
namespace {

TEST(CycloneOnGrid, SlowerThanRingButStillBeatsBaseline)
{
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);

    CycloneOptions ring;
    CycloneOptions grid;
    grid.gridEmbedded = true;
    CycloneCompileResult on_ring = compileCyclone(code, ring);
    CycloneCompileResult on_grid = compileCyclone(code, grid);

    EXPECT_GT(on_grid.execTimeUs, on_ring.execTimeUs);
    EXPECT_EQ(on_grid.compilerName, "cyclone-on-grid");
    EXPECT_GT(on_grid.numJunctions, on_ring.numJunctions);
    // Still roadblock free and still faster than the baseline grid.
    EXPECT_EQ(on_grid.trapRoadblocks, 0u);
    CodesignConfig cfg;
    cfg.architecture = Architecture::BaselineGrid;
    CompileResult baseline = compileCodesign(code, sched, cfg);
    EXPECT_LT(on_grid.execTimeUs, baseline.execTimeUs);
}

TEST(CycloneOnGrid, LongLinkPenaltyScalesWithJunctions)
{
    CssCode code = catalog::bb72();
    CycloneOptions few;
    few.gridEmbedded = true;
    few.longLinkJunctions = 2;
    CycloneOptions many = few;
    many.longLinkJunctions = 12;
    EXPECT_LT(compileCyclone(code, few).execTimeUs,
              compileCyclone(code, many).execTimeUs);
}

TEST(XMemory, NoiselessDeterministic)
{
    CssCode code = catalog::bb72();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 3;
    opts.noise = NoiseModel::uniform(0.0);
    Circuit circuit = buildXMemoryCircuit(code, sched, opts);
    FrameSimulator sim(circuit);
    Rng rng(5);
    auto samples = sim.sample(8, rng);
    for (const BitVec& d : samples.detectors)
        EXPECT_TRUE(d.isZero());
    for (uint64_t obs : samples.observables)
        EXPECT_EQ(obs, 0u);
}

TEST(XMemory, DetectorCountsMirrorZMemory)
{
    CssCode code = makeHgpCode(ClassicalCode::repetition(3), 3);
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 4;
    opts.noise = NoiseModel::uniform(0.0);
    Circuit x_mem = buildXMemoryCircuit(code, sched, opts);
    const size_t mx = code.numXStabs();
    const size_t mz = code.numZStabs();
    EXPECT_EQ(x_mem.numDetectors(), mx * (4 + 1) + mz * (4 - 1));
    EXPECT_EQ(x_mem.numObservables(), code.numLogical());
}

TEST(XMemory, ZErrorsCauseLogicalFailures)
{
    // In X memory, logical-Z-type noise (phase flips) is what kills
    // the logical state; a Z-biased channel must raise the X-memory
    // LER above the Z-memory LER under the same bias.
    TaskSpec task = memoryTask("surface3", 0.02, 3, 400);
    task.xBasis = true;
    const TaskResult x_result = runTask(task, 21);
    EXPECT_GT(x_result.logicalErrorRate.rate, 0.0);
    EXPECT_EQ(x_result.logicalErrorRate.trials, 400u);
}

TEST(XMemory, MonotoneInPhysicalError)
{
    double prev = -1.0;
    for (double p : {0.003, 0.03}) {
        TaskSpec task = memoryTask("surface3", p, 3, 400);
        task.xBasis = true;
        const TaskResult r = runTask(task, 23);
        EXPECT_GE(r.logicalErrorRate.rate, prev);
        prev = r.logicalErrorRate.rate;
    }
    EXPECT_GT(prev, 0.0);
}

} // namespace
} // namespace cyclone
