/**
 * @file
 * Hardware-aware memory experiment: sweep the physical error rate for
 * one code under a chosen architecture and print the logical error
 * rate curve with Wilson error bars (the raw material of the paper's
 * Figs. 14-15).
 *
 * The sweep runs as one campaign: the architecture is compiled once
 * (shared through the artifact cache), the four DEMs build in parallel
 * on the thread pool, and an optional relative-error target
 * lets converged points stop before the shot cap.
 *
 * Run: ./memory_experiment [code-name] [cyclone|baseline] [shots]
 *      [target-rel-err]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cyclone.h"

using namespace cyclone;

int
main(int argc, char** argv)
{
    const std::string name = argc > 1 ? argv[1] : "bb72";
    const std::string arch = argc > 2 ? argv[2] : "cyclone";
    const size_t shots = argc > 3
        ? static_cast<size_t>(std::atoll(argv[3])) : 400;
    const double rel_err = argc > 4 ? std::atof(argv[4]) : 0.0;

    CampaignSpec spec;
    spec.name = "memory-experiment";
    spec.seed = 1234;
    for (double p : {2e-4, 5e-4, 1e-3, 2e-3}) {
        TaskSpec task;
        task.codeName = name;
        task.architecture = arch == "baseline"
            ? Architecture::BaselineGrid : Architecture::Cyclone;
        task.compileLatency = true;
        task.physicalError = p;
        task.stop.chunkShots = 128;
        task.stop.maxShots = shots;
        task.stop.targetRelErr = rel_err;
        spec.tasks.push_back(std::move(task));
    }

    const CampaignResult result = runCampaign(spec);
    std::printf("%s on %s: round latency %.2f ms\n", name.c_str(),
                result.tasks.front().architecture.c_str(),
                result.tasks.front().roundLatencyUs / 1000.0);

    std::printf("%10s %12s %12s %10s %12s %8s\n", "p", "LER", "+-",
                "perRound", "BP-conv", "shots");
    for (const TaskResult& t : result.tasks) {
        if (!t.error.empty()) {
            std::printf("%10.1e failed: %s\n", t.physicalError,
                        t.error.c_str());
            continue;
        }
        const double conv = t.decoder.decodes > 0
            ? static_cast<double>(t.decoder.bpConverged) /
                t.decoder.decodes
            : 0.0;
        std::printf("%10.1e %12.5f %12.5f %10.5f %11.0f%% %8zu\n",
                    t.physicalError, t.logicalErrorRate.rate, t.wilson,
                    t.perRoundErrorRate, 100.0 * conv,
                    t.logicalErrorRate.trials);
    }
    std::printf("total %zu shots, wall %.1fs, compile cache %zu/%zu "
                "hit/miss, dem cache %zu/%zu\n",
                result.totalShots(), result.wallSeconds,
                result.cache.compileHits, result.cache.compileMisses,
                result.cache.demHits, result.cache.demMisses);
    return 0;
}
