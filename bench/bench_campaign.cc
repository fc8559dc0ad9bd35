/**
 * @file
 * Campaign scale-out benchmark: spool-distributed execution with 1 vs
 * 2 single-threaded worker processes on the paper's [[72,12,6]] BB
 * code, plus a plain in-process run as the no-spool baseline.
 *
 * Unlike the other benches this is a plain main(): it forks real
 * worker processes (pinned to disjoint cores when the host has
 * them), which Google Benchmark's in-process timing loop cannot
 * express. Every configuration decodes the identical deterministic
 * shot set — the spool protocol guarantees bit-identical results at
 * any worker count — so the only thing that varies is wall-clock
 * time, reported as shots/second per row.
 *
 * Always distills BENCH_campaign.json (override the path with
 * CYCLONE_BENCH_CAMPAIGN_JSON). The committed copy records the last
 * measured numbers with the host's core count; CI re-runs the bench
 * on a multi-core runner and gates two_workers_over_one against an
 * absolute scale-out floor, skipping the gate on single-core hosts
 * where two workers cannot physically overlap. CYCLONE_SHOTS
 * overrides the per-configuration shot budget.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.h"

using namespace cyclone;

namespace {

std::string
benchSpec(size_t shots)
{
    // One decode-heavy task: chunks large enough that spool latency
    // is negligible against decode time, waves wide enough that two
    // workers always have disjoint shards to claim (auto sharding
    // slices each 16-chunk wave into four 4-chunk shards).
    std::string text = "name = bench-scaleout\nseed = 99\n\n[task]\n"
                       "id = bb72\ncode = bb72\narch = none\n"
                       "latency_us = 100\np = 1e-3\n"
                       "chunk_shots = 250\nchunks_per_wave = 16\n"
                       "staging_chunks = 2\nbp = minsum\n";
    text += "max_shots = " + std::to_string(shots) + "\n";
    return text;
}

/** Pin the calling process to one core (no-op on failure). */
void
pinToCore(size_t core)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core % static_cast<size_t>(CPU_SETSIZE), &set);
    sched_setaffinity(0, sizeof set, &set);
}

struct Row
{
    std::string name;
    size_t workers = 0;
    size_t shots = 0;
    double wallSeconds = 0.0;
    double shotsPerSec = 0.0;
};

Row
runSpoolConfig(const std::string& specText, size_t workers,
               size_t cores)
{
    CampaignSpec spec = parseCampaignSpec(specText);
    char dir[] = "/tmp/cyclone-bench-spool-XXXXXX";
    if (::mkdtemp(dir) == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        std::exit(1);
    }
    spec.spool = dir;

    std::vector<pid_t> pids;
    for (size_t w = 0; w < workers; ++w) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            if (cores >= 2)
                pinToCore(w);
            WorkerOptions opts;
            opts.spool = spec.spool;
            opts.threads = 1;
            opts.workerId = "bench" + std::to_string(w);
            opts.pollSeconds = 0.002;
            try {
                runSpoolWorker(opts);
            } catch (const std::exception& ex) {
                std::fprintf(stderr, "worker error: %s\n", ex.what());
                ::_exit(1);
            }
            ::_exit(0);
        }
        pids.push_back(pid);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult result =
        runDistributedCampaign(spec, specText);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    for (const pid_t pid : pids)
        ::waitpid(pid, nullptr, 0);
    std::string cleanup = std::string("rm -rf '") + dir + "'";
    std::system(cleanup.c_str());

    for (const TaskResult& t : result.tasks) {
        if (!t.error.empty()) {
            std::fprintf(stderr, "task failed: %s\n",
                         t.error.c_str());
            std::exit(1);
        }
    }

    Row row;
    row.name = "spool_" + std::to_string(workers) + "worker";
    row.workers = workers;
    row.shots = result.totalShots();
    row.wallSeconds = wall;
    row.shotsPerSec = wall > 0.0
        ? static_cast<double>(row.shots) / wall
        : 0.0;
    return row;
}

Row
runLocalConfig(const std::string& specText)
{
    CampaignSpec spec = parseCampaignSpec(specText);
    spec.threads = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult result = runCampaign(spec);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    Row row;
    row.name = "local_1thread";
    row.shots = result.totalShots();
    row.wallSeconds = wall;
    row.shotsPerSec = wall > 0.0
        ? static_cast<double>(row.shots) / wall
        : 0.0;
    return row;
}

} // namespace

int
main()
{
    const size_t cores = std::thread::hardware_concurrency();
    const size_t shots = bench::shots(8000);
    const std::string spec = benchSpec(shots);

    std::vector<Row> rows;
    rows.push_back(runLocalConfig(spec));
    std::fprintf(stderr, "%-16s %8zu shots  %6.2fs  %8.1f shots/s\n",
                 rows.back().name.c_str(), rows.back().shots,
                 rows.back().wallSeconds, rows.back().shotsPerSec);
    for (const size_t workers : {size_t{1}, size_t{2}}) {
        rows.push_back(runSpoolConfig(spec, workers, cores));
        std::fprintf(stderr,
                     "%-16s %8zu shots  %6.2fs  %8.1f shots/s\n",
                     rows.back().name.c_str(), rows.back().shots,
                     rows.back().wallSeconds, rows.back().shotsPerSec);
    }

    const double one = rows[1].shotsPerSec;
    const double two = rows[2].shotsPerSec;
    const double scaleout = one > 0.0 ? two / one : 0.0;
    const double spoolOverhead =
        rows[0].shotsPerSec > 0.0 ? one / rows[0].shotsPerSec : 0.0;
    std::fprintf(stderr,
                 "two_workers_over_one %.3fx (cores=%zu), "
                 "spool_over_local %.3fx\n",
                 scaleout, cores, spoolOverhead);

    const char* env = std::getenv("CYCLONE_BENCH_CAMPAIGN_JSON");
    const std::string path =
        env != nullptr ? env : "BENCH_campaign.json";
    std::string json;
    bench::appendf(json,
                   "{\n  \"bench\": \"bench_campaign\",\n"
                   "  \"code\": \"bb72\",\n  \"cores\": %zu,\n"
                   "  \"shot_budget\": %zu,\n  \"rows\": [\n",
                   cores, shots);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        bench::appendf(json,
                       "    {\"name\": \"%s\", \"workers\": %zu, "
                       "\"threads_per_worker\": 1, \"shots\": %zu, "
                       "\"wall_seconds\": %.4g, "
                       "\"shots_per_sec\": %.6g}%s\n",
                       r.name.c_str(), r.workers, r.shots,
                       r.wallSeconds, r.shotsPerSec,
                       i + 1 < rows.size() ? "," : "");
    }
    bench::appendf(json,
                   "  ],\n  \"speedups\": {\n"
                   "    \"two_workers_over_one\": %.4g,\n"
                   "    \"spool_over_local\": %.4g\n  }\n}\n",
                   scaleout, spoolOverhead);
    return bench::publishBenchJson(path, json) ? 0 : 1;
}
