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
 * Run: ./memory_experiment [code-name] [architecture] [shots]
 *      [target-rel-err]
 *
 * The code and the architecture take their spec-file names (bb72,
 * hgp225, surface5, ...; baseline, alternate, dynamic, ring, mesh,
 * cyclone), the numbers parse as spec values do. An unknown name or a
 * malformed number exits 2, naming the argument.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

/** Exit 2 after one error line naming argument `arg`. */
[[noreturn]] void
badArgument(const char* arg, const std::string& why)
{
    std::fprintf(stderr, "error: %s: %s\n", arg, why.c_str());
    std::exit(2);
}

/** Argument `arg` parsed by parseCount or parseReal. */
template <typename Parse>
auto
numericArgument(const char* arg, const char* text, Parse parse)
{
    try {
        return parse(text);
    } catch (const std::invalid_argument& ex) {
        badArgument(arg, ex.what());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string name = argc > 1 ? argv[1] : "bb72";
    try {
        resolveCampaignCode(name);
    } catch (const std::exception&) {
        badArgument("code-name", "unknown code '" + name + "'");
    }
    const std::string arch_name = argc > 2 ? argv[2] : "cyclone";
    const std::optional<Architecture> arch = parseArchitecture(arch_name);
    if (!arch)
        badArgument("architecture",
                    "unknown architecture '" + arch_name + "'");
    const size_t shots =
        argc > 3 ? numericArgument("shots", argv[3], parseCount) : 400;
    const double rel_err = argc > 4
        ? numericArgument("target-rel-err", argv[4], parseReal)
        : 0.0;

    CampaignSpec spec;
    spec.name = "memory-experiment";
    spec.seed = 1234;
    for (double p : {2e-4, 5e-4, 1e-3, 2e-3}) {
        TaskSpec task;
        task.codeName = name;
        task.architecture = *arch;
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
