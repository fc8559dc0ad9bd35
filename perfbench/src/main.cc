/**
 * @file
 * Cyclone benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 *
 * Workloads: bb72_default, hgp225_fig15, hgp225_fig15_spool,
 * bb72_stream_paced. Every input (spec text, shot sets) is generated
 * from --seed. Human-readable progress, check results and provenance go
 * to stderr; the last line of stdout is the result object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics the workload exercises with
 * --trace 1. The exit code is non-zero when any correctness check
 * failed.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed") {
                o.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                o.workDir = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (o.workload.empty() || !haveSeed || o.workDir.empty() ||
        !(o.seconds > 0.0))
        usage("--workload, --seed, --seconds and --work-dir are required");
    o.threads = std::max(1u, std::thread::hardware_concurrency());
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    const std::string prov = provenance(
        o, cyclone::selectDecoderBackend(0).backend->name);

    Report report;
    try {
        if (o.workload == "bb72_default" || o.workload == "hgp225_fig15")
            runCampaignWorkload(o, report);
        else if (o.workload == "hgp225_fig15_spool")
            runSpoolWorkload(o, report);
        else if (o.workload == "bb72_stream_paced")
            runStreamWorkload(o, report);
        else
            usage(("unknown workload " + o.workload).c_str());
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
    report.attempted = std::max<size_t>(1, report.attempted);

    const std::string line = report.json();
    std::ofstream log(o.workDir + "/runs.jsonl", std::ios::app);
    log << "{\"provenance\": " << prov << ", \"result\": " << line
        << "}\n";
    std::printf("%s\n", line.c_str());
    return report.correct ? 0 : 1;
}
