/**
 * @file
 * Figure 5: logical error rate improvement from speeding up the
 * baseline on HGP codes at a fixed physical error rate p = 5e-4.
 *
 * Each point divides the compiled baseline round latency by a speedup
 * factor and reruns the latency-coupled memory experiment; a 2x depth
 * reduction should already cut LER by roughly an order of magnitude
 * (Section II-C2). All points run as one campaign on a shared
 * thread pool: the baseline compile is cached across the
 * speedup sweep and the adaptive sampler stops easy (high-LER) points
 * early. Counters: LER, LER_err, latency_ms, speedup, shots.
 */

#include <string>
#include <vector>

#include "bench_util.h"

using namespace cyclone;
using namespace cyclone::bench;

int
main(int argc, char** argv)
{
    std::vector<std::string> codes{"hgp225"};
    if (fullMode()) {
        codes.push_back("hgp400");
        codes.push_back("hgp625");
    }
    const std::vector<double> speedups = fullMode()
        ? std::vector<double>{1.0, 1.25, 1.5, 2.0, 3.0, 4.0}
        : std::vector<double>{1.0, 2.0, 4.0};

    CampaignSpec spec;
    spec.name = "fig05";
    spec.seed = 0xc0de;
    std::vector<double> task_speedups;
    for (const auto& name : codes) {
        for (double s : speedups) {
            TaskSpec task;
            task.id = "fig05/" + name + "/speedup:" +
                std::to_string(s).substr(0, 4);
            task.codeName = name;
            task.architecture = Architecture::BaselineGrid;
            task.compileLatency = true;
            task.latencyScale = 1.0 / s;
            task.physicalError = 5e-4;
            task.bp.variant = BpOptions::Variant::MinSum;
            task.stop = figureRule(200);
            spec.tasks.push_back(std::move(task));
            task_speedups.push_back(s);
        }
    }

    registerCampaignBenchmarks(
        std::move(spec), task_speedups.size() * figureRule(200).maxShots,
        [task_speedups](benchmark::State& state, const TaskResult& r,
                        size_t i) {
            state.counters["latency_ms"] = r.roundLatencyUs / 1000.0;
            state.counters["speedup"] = task_speedups[i];
        });
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
