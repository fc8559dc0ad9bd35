/**
 * @file
 * Quickstart: compile one syndrome round of a bivariate bicycle code
 * under the baseline grid and under Cyclone, then couple both
 * latencies into hardware-aware memory experiments and compare
 * logical error rates.
 *
 * Run: ./quickstart [code-name] (default bb72; see
 * cyclone::catalog::names() for options)
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

void
printCompile(const char* label, const CompileResult& r)
{
    std::printf("  %-14s exec %8.1f ms | traps %3zu | ancilla %3zu | "
                "trap-roadblocks %4zu | junction-roadblocks %4zu\n",
                label, r.execTimeUs / 1000.0, r.numTraps, r.numAncilla,
                r.trapRoadblocks, r.junctionRoadblocks);
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string name = argc > 1 ? argv[1] : "bb72";
    CssCode code = catalog::byName(name);
    std::printf("Code: %s — %zu data qubits, %zu stabilizers\n",
                code.name().c_str(), code.numQubits(),
                code.numStabs());

    SyndromeSchedule schedule = makeXThenZSchedule(code);
    std::printf("X-then-Z schedule: %zu CX gates in %zu timeslices\n\n",
                schedule.totalGates(), schedule.depth());

    // ---- Compile one round under both codesigns. ----
    CodesignConfig config;
    config.architecture = Architecture::BaselineGrid;
    CompileResult baseline = compileCodesign(code, schedule, config);
    config.architecture = Architecture::Cyclone;
    CompileResult cyclone_r = compileCodesign(code, schedule, config);

    std::printf("Compiled syndrome-extraction round:\n");
    printCompile("baseline grid", baseline);
    printCompile("cyclone", cyclone_r);
    std::printf("  speedup %.2fx, spacetime improvement %.1fx\n\n",
                baseline.execTimeUs / cyclone_r.execTimeUs,
                baseline.spacetimeCost() / cyclone_r.spacetimeCost());

    // ---- Memory experiments with latency-coupled noise. ----
    // Each is a one-task campaign at that round latency.
    const double p = 1e-3;
    const size_t shots = 400;
    auto memory = [&](double latency_us) {
        TaskSpec task;
        task.codeName = name;
        task.compileLatency = false;
        task.roundLatencyUs = latency_us;
        task.physicalError = p;
        task.stop.maxShots = shots;
        CampaignSpec spec;
        spec.seed = 7;
        spec.tasks.push_back(task);
        TaskResult r = runCampaign(spec).tasks.front();
        if (!r.error.empty())
            throw std::runtime_error("memory experiment failed: " +
                                     r.error);
        return r;
    };
    const TaskResult baseline_mem = memory(baseline.execTimeUs);
    const TaskResult cyclone_mem = memory(cyclone_r.execTimeUs);

    std::printf("Memory experiment at p = %.0e (%zu rounds, %zu "
                "shots):\n",
                p, baseline_mem.rounds, shots);
    std::printf("  baseline grid LER = %.4f +- %.4f\n",
                baseline_mem.logicalErrorRate.rate,
                baseline_mem.logicalErrorRate.stderr);
    std::printf("  cyclone       LER = %.4f +- %.4f\n",
                cyclone_mem.logicalErrorRate.rate,
                cyclone_mem.logicalErrorRate.stderr);
    return 0;
}
