/**
 * @file
 * Figure 14: logical error rates of Cyclone (C) vs the baseline grid
 * (B) on bivariate bicycle codes.
 *
 * The whole figure is one campaign: per-architecture compiles are
 * cached across the p sweep, every point samples on the shared
 * thread pool, and adaptive stopping trims shots from points
 * whose confidence interval converges early. Default codes:
 * [[72,12,6]] and one [[144,12,12]] point; CYCLONE_FULL=1 runs all
 * five BB codes over the dense p sweep.
 * Counters: LER, LER_err, latency_ms, p, shots.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace cyclone;
using namespace cyclone::bench;

namespace {

void
addCode(CampaignSpec& spec, size_t& fixed_budget,
        const std::string& name, const std::vector<double>& ps,
        size_t n_shots)
{
    for (Architecture arch :
         {Architecture::Cyclone, Architecture::BaselineGrid}) {
        const char tag = arch == Architecture::Cyclone ? 'C' : 'B';
        for (double p : ps) {
            char label[96];
            std::snprintf(label, sizeof label, "fig14/%s/%c/p:%.1e",
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

} // namespace

int
main(int argc, char** argv)
{
    CampaignSpec spec;
    spec.name = "fig14";
    spec.seed = 0xc0de;
    size_t fixed_budget = 0;
    if (fullMode()) {
        for (const char* name :
             {"bb72", "bb90", "bb108", "bb144", "bb288"}) {
            addCode(spec, fixed_budget, name, {5e-4, 1e-3, 2e-3, 4e-3},
                    400);
        }
    } else {
        addCode(spec, fixed_budget, "bb72", {1e-3, 2e-3, 4e-3}, 600);
        addCode(spec, fixed_budget, "bb144", {2e-3}, 120);
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
