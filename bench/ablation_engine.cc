/**
 * @file
 * Ablation study over the compiler-engine design choices (not a
 * paper figure; supports the modelling decisions):
 *
 *  - EJF candidate window: 1 is the faithful Earliest-Job-First
 *    policy; wider windows add lookahead and quantify how much of the
 *    baseline's slowness is greed vs. topology.
 *  - Cluster-mapping density (data qubits per trap).
 *  - Gate-time knee exponent: how strongly long chains penalize dense
 *    Cyclone configurations (drives the Fig. 13 optimum).
 *  - Conservative vs. incremental routing on the junction mesh.
 *
 * All rows are compile-only (no Monte Carlo) on [[225,9,6]].
 */

#include <string>
#include <vector>

#include "bench_util.h"

using namespace cyclone;
using namespace cyclone::bench;

namespace {

void
runWindow(benchmark::State& state, size_t window)
{
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    Topology grid = buildBaselineGrid(15, 15, 5);
    EjfOptions options;
    options.candidateWindow = window;
    for (auto _ : state) {
        CompileResult r = compileEjf(code, sched, grid, options);
        state.counters["exec_ms"] = r.execTimeUs / 1000.0;
        state.counters["trap_roadblocks"] =
            static_cast<double>(r.trapRoadblocks);
    }
}

void
runDensity(benchmark::State& state, size_t data_per_trap)
{
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    Topology grid = buildBaselineGrid(15, 15, 5);
    EjfOptions options;
    options.dataPerTrap = data_per_trap;
    for (auto _ : state) {
        CompileResult r = compileEjf(code, sched, grid, options);
        state.counters["exec_ms"] = r.execTimeUs / 1000.0;
        state.counters["rebalances"] =
            static_cast<double>(r.rebalances);
        state.counters["shuttles"] =
            static_cast<double>(r.shuttleOps);
    }
}

void
runKnee(benchmark::State& state, double knee_exponent)
{
    CssCode code = catalog::hgp225();
    CycloneOptions options;
    options.durations.gate.kneeExponent = knee_exponent;
    for (auto _ : state) {
        // Where does the trap-count optimum land under this knee?
        auto points = sweepCycloneTrapCounts(
            code, {9, 25, 45, 64, 75, 108}, options);
        const CycloneDesignPoint& best = bestDesignPoint(points);
        state.counters["best_traps"] =
            static_cast<double>(best.traps);
        state.counters["best_exec_ms"] = best.execTimeUs / 1000.0;
        state.counters["dense9_exec_ms"] =
            points[0].execTimeUs / 1000.0;
    }
}

void
runRouting(benchmark::State& state, bool conservative)
{
    CssCode code = catalog::hgp225();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    EjfOptions options;
    for (auto _ : state) {
        CompileResult r;
        if (conservative) {
            r = compileMeshJunction(code, sched, options);
        } else {
            Topology mesh = buildJunctionMesh(code.numQubits(), 3);
            EjfOptions incremental = options;
            incremental.dataPerTrap = 1;
            incremental.name = "mesh-incremental";
            r = compileEjf(code, sched, mesh, incremental);
        }
        state.counters["exec_ms"] = r.execTimeUs / 1000.0;
        state.counters["junction_roadblocks"] =
            static_cast<double>(r.junctionRoadblocks);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    for (size_t w : {1, 4, 16, 64}) {
        benchmark::RegisterBenchmark(
            ("ablation/ejf_window:" + std::to_string(w)).c_str(),
            [w](benchmark::State& s) { runWindow(s, w); })
            ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
    for (size_t d : {1, 2, 4}) {
        benchmark::RegisterBenchmark(
            ("ablation/data_per_trap:" + std::to_string(d)).c_str(),
            [d](benchmark::State& s) { runDensity(s, d); })
            ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
    for (double k : {1.0, 2.0, 3.0}) {
        benchmark::RegisterBenchmark(
            ("ablation/gate_knee_exp:" +
             std::to_string(int(k))).c_str(),
            [k](benchmark::State& s) { runKnee(s, k); })
            ->Iterations(1)->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        "ablation/mesh_routing:conservative",
        [](benchmark::State& s) { runRouting(s, true); })
        ->Iterations(1)->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        "ablation/mesh_routing:incremental",
        [](benchmark::State& s) { runRouting(s, false); })
        ->Iterations(1)->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
