/**
 * @file
 * Figure 15: logical error rates of Cyclone (C) vs the baseline grid
 * (B) on hypergraph product codes.
 *
 * One campaign per run: compiles cached per (code, architecture),
 * sampling on the shared thread pool with adaptive stopping.
 * Default code: [[225,9,6]]; CYCLONE_FULL=1 adds [[400,16,6]] and
 * [[625,25,8]] over a denser p sweep. Counters: LER, LER_err,
 * latency_ms, p, shots.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace cyclone;
using namespace cyclone::bench;

int
main(int argc, char** argv)
{
    std::vector<std::string> codes{"hgp225"};
    std::vector<double> ps{5e-4, 1e-3, 2e-3};
    size_t n_shots = 250;
    if (fullMode()) {
        codes = {"hgp225", "hgp400", "hgp625"};
        ps = {2e-4, 5e-4, 1e-3, 2e-3};
        n_shots = 400;
    }

    CampaignSpec spec;
    spec.name = "fig15";
    spec.seed = 0xc0de;
    size_t fixed_budget = 0;
    for (const auto& name : codes) {
        for (Architecture arch :
             {Architecture::Cyclone, Architecture::BaselineGrid}) {
            const char tag = arch == Architecture::Cyclone ? 'C' : 'B';
            for (double p : ps) {
                char label[96];
                std::snprintf(label, sizeof label, "fig15/%s/%c/p:%.1e",
                              name.c_str(), tag, p);
                TaskSpec task;
                task.id = label;
                task.codeName = name;
                task.architecture = arch;
                task.physicalError = p;
                task.bp.variant = BpOptions::Variant::MinSum;
                task.stop = figureRule(n_shots);
                fixed_budget += task.stop.maxShots;
                spec.tasks.push_back(std::move(task));
            }
        }
    }

    registerCampaignBenchmarks(
        std::move(spec), fixed_budget,
        [](benchmark::State& state, const TaskResult& r, size_t) {
            state.counters["latency_ms"] = r.roundLatencyUs / 1000.0;
            state.counters["p"] = r.physicalError;
        });
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
