/**
 * @file
 * Campaign CLI: load a declarative spec, execute every task, and emit
 * the results as JSON (stdout or --json FILE) and optionally CSV.
 *
 * Three execution modes:
 *
 *  - In-process (default): every task runs on one local
 *    work-stealing pool with adaptive shot allocation.
 *  - Coordinator (--spool DIR, or `spool =` in the spec): the run is
 *    sharded through a filesystem spool. The coordinator compiles
 *    every artifact once into the spool's shared store, publishes
 *    chunk-range shards, and merges worker records — bit-identical
 *    to an in-process run. --workers N forks N local worker
 *    processes alongside the coordinator; external workers on any
 *    machine sharing the directory may join at any time.
 *  - Worker (--worker --spool DIR): claim and execute shards until
 *    the coordinator marks the spool DONE.
 *
 * With --checkpoint FILE the runner resumes completed tasks from a
 * previous interrupted run and re-saves the checkpoint after every
 * finished task, so long sweeps survive preemption.
 *
 * Run: ./campaign_runner [spec-file] [--threads N] [--json FILE]
 *      [--csv FILE] [--checkpoint FILE] [--quiet]
 *      [--spool DIR] [--workers N] [--lease SECONDS]
 *      [--max-claim-reclaims N] [--self-execute]
 *      [--worker] [--worker-id NAME] [--worker-shards N] [--promote]
 *
 * Failover: `--coordinator-takeover --spool DIR` resumes a crashed
 * coordinator's campaign. The spec is read back from the spool
 * itself (no spec file needed), the stale coordinator lease is
 * waited out (the manifest's lease, unless --lease is given) and
 * stolen, finalized tasks are restored from the merge journal,
 * surviving records are re-merged, and any missing shards are
 * re-executed in-process (self-execute is implied). Workers may
 * keep running throughout; `--promote` makes a worker perform the
 * same takeover automatically when the coordinator dies.
 *
 * Without a spec file a built-in demo campaign runs the paper's
 * [[72,12,6]] BB code under Cyclone vs the baseline grid across three
 * physical error rates (six tasks).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

const char* kDemoSpec = R"(# Built-in demo: fig14-style Cyclone-vs-baseline sweep on bb72.
name = demo-bb72
seed = 7

[task]
code = bb72
arch = cyclone, baseline
p = 1e-3, 2e-3, 4e-3
chunk_shots = 128
chunks_per_wave = 2
max_shots = 800
target_rel_err = 0.1
bp = minsum
)";

void
usage(const char* prog)
{
    std::fprintf(stderr,
                 "usage: %s [spec-file] [--threads N] [--json FILE] "
                 "[--csv FILE] [--checkpoint FILE] [--quiet]\n"
                 "       [--spool DIR] [--workers N] [--lease SECONDS]"
                 " [--max-claim-reclaims N]\n"
                 "       [--self-execute]\n"
                 "       %s --worker --spool DIR [--threads N] "
                 "[--worker-id NAME] [--worker-shards N] [--promote]\n"
                 "       %s --coordinator-takeover --spool DIR "
                 "[spec-file] [--threads N] [--json FILE]\n",
                 prog, prog, prog);
}

/**
 * The value of numeric flag `flag`, parsed as the spec parser parses
 * its keys (counts take digits only, nothing may trail a number), and
 * within `ok` when given. A bad value exits 2 naming the flag.
 */
template <typename Parse>
auto
numericFlag(const char* flag, const char* text, Parse parse,
            bool (*ok)(double) = nullptr, const char* rule = "")
{
    try {
        const auto v = parse(text);
        if (ok == nullptr || ok(static_cast<double>(v)))
            return v;
        std::fprintf(stderr, "error: %s: %s, got '%s'\n", flag, rule,
                     text);
    } catch (const std::invalid_argument& ex) {
        std::fprintf(stderr, "error: %s: %s\n", flag, ex.what());
    }
    std::exit(2);
}

/** Write a result file atomically; false, after one error line, when
 *  it cannot be written. */
bool
writeOutput(const std::string& path, const std::string& text)
{
    try {
        writeFileAtomic(path, text);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(),
                     ex.what());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string spec_path;
    std::string json_path;
    std::string csv_path;
    std::string checkpoint_path;
    std::string spool_dir;
    std::string worker_id;
    std::optional<size_t> threads_override;
    std::optional<size_t> workers_override;
    std::optional<double> lease_override;
    size_t worker_shards = 0;
    bool worker_mode = false;
    bool promote = false;
    bool takeover = false;
    bool self_execute = false;
    std::optional<size_t> max_claim_reclaims;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        auto count = [&] {
            const char* flag = argv[i];
            return numericFlag(flag, next(), parseCount);
        };
        if (arg == "--threads") {
            threads_override = count();
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--checkpoint") {
            checkpoint_path = next();
        } else if (arg == "--spool") {
            spool_dir = next();
        } else if (arg == "--workers") {
            workers_override = count();
        } else if (arg == "--lease") {
            lease_override = numericFlag(
                "--lease", next(), parseReal,
                [](double v) { return v > 0.0; }, "must be > 0");
        } else if (arg == "--worker") {
            worker_mode = true;
        } else if (arg == "--worker-id") {
            worker_id = next();
        } else if (arg == "--worker-shards") {
            worker_shards = count();
        } else if (arg == "--promote") {
            promote = true;
        } else if (arg == "--coordinator-takeover") {
            takeover = true;
        } else if (arg == "--self-execute") {
            self_execute = true;
        } else if (arg == "--max-claim-reclaims") {
            max_claim_reclaims = count();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        } else {
            spec_path = arg;
        }
    }

    if (worker_mode) {
        if (spool_dir.empty()) {
            std::fprintf(stderr,
                         "error: --worker needs --spool DIR\n");
            return 2;
        }
        WorkerOptions opts;
        opts.spool = spool_dir;
        opts.threads = threads_override.value_or(0);
        opts.workerId = worker_id;
        opts.maxShards = worker_shards;
        opts.promote = promote;
        try {
            const WorkerReport report = runSpoolWorker(opts);
            if (!quiet)
                std::fprintf(
                    stderr,
                    "[worker] %zu shards, %zu shots, compile "
                    "store hits %zu / built %zu, dem store hits "
                    "%zu / built %zu\n",
                    report.shardsRun, report.shots,
                    report.cache.compileStoreHits,
                    report.cache.compileMisses -
                        report.cache.compileStoreHits,
                    report.cache.demStoreHits,
                    report.cache.demMisses -
                        report.cache.demStoreHits);
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "worker error: %s\n", ex.what());
            return 1;
        }
        return 0;
    }

    if (takeover && spool_dir.empty()) {
        std::fprintf(stderr,
                     "error: --coordinator-takeover needs --spool "
                     "DIR\n");
        return 2;
    }

    CampaignSpec spec;
    std::string spec_text;
    try {
        if (takeover && spec_path.empty()) {
            // Take over with nothing but the spool: the dead
            // coordinator published the verbatim spec text there,
            // and its manifest holds the lease it ran under, the one
            // to wait out unless --lease says otherwise.
            Spool spool(spool_dir);
            if (!spool.initialized())
                throw std::runtime_error(
                    "no initialized spool to take over at " +
                    spool_dir);
            spec_text = spool.readSpecText();
            if (!lease_override)
                lease_override = spool.readManifest().leaseSeconds;
        } else {
            spec_text = spec_path.empty() ? kDemoSpec
                                          : readWholeFile(spec_path);
        }
        spec = parseCampaignSpec(spec_text);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }
    // CLI overrides touch only campaign-level scheduling fields, so
    // workers re-parsing the published spec text still resolve the
    // same task identities and content hashes.
    spec.threads = threads_override.value_or(spec.threads);
    if (!spool_dir.empty())
        spec.spool = spool_dir;
    spec.workers = workers_override.value_or(spec.workers);
    spec.leaseSeconds = lease_override.value_or(spec.leaseSeconds);
    spec.maxClaimReclaims =
        max_claim_reclaims.value_or(spec.maxClaimReclaims);
    if (takeover) {
        // A takeover must be able to finish alone: the workers that
        // served the dead coordinator may be gone too.
        self_execute = true;
        spec.spool = spool_dir;
        spec.workers = 0;
    }

    CampaignCheckpoint checkpoint;
    const CampaignCheckpoint* resume = nullptr;
    if (!checkpoint_path.empty() &&
        loadCheckpoint(checkpoint_path, checkpoint)) {
        resume = &checkpoint;
        if (!quiet)
            std::fprintf(stderr, "resuming %zu tasks from %s\n",
                         checkpoint.tasks.size(),
                         checkpoint_path.c_str());
    }

    // Incremental checkpointing: re-save after every finished task. A
    // save that fails is reported once; the run goes on and writes its
    // results, then exits 1, since nothing is left to resume from.
    CampaignResult partial;
    bool checkpoint_failed = false;
    auto on_task_done = [&](const TaskResult& t) {
        if (!quiet)
            std::fprintf(
                stderr,
                "  %-32s %s shots=%zu failures=%zu ler=%.3g "
                "trivial=%.0f%% memo=%.1f%% bp_iters=%.1f%s\n",
                t.id.c_str(),
                t.error.empty() ? "done " : "FAIL ",
                t.logicalErrorRate.trials,
                t.logicalErrorRate.successes, t.logicalErrorRate.rate,
                100.0 * t.decoder.trivialFraction(),
                100.0 * t.decoder.memoHitRate(),
                t.decoder.meanBpIterations(),
                t.fromCheckpoint
                    ? " (checkpoint)"
                    : (t.stoppedEarly ? " (early stop)" : ""));
        if (!checkpoint_path.empty()) {
            partial.tasks.push_back(t);
            if (!saveCheckpoint(partial, checkpoint_path) &&
                !checkpoint_failed) {
                checkpoint_failed = true;
                std::fprintf(stderr, "error: cannot write checkpoint %s\n",
                             checkpoint_path.c_str());
            }
        }
    };

    CampaignResult result;
    std::vector<pid_t> children;
    try {
        if (!spec.spool.empty()) {
            // Fork local workers BEFORE the coordinator runs: the
            // coordinator is deliberately thread-free, so forking
            // here is safe, and the children never return into the
            // coordinator path.
            for (size_t w = 0; w < spec.workers; ++w) {
                const pid_t pid = ::fork();
                if (pid == 0) {
                    WorkerOptions opts;
                    opts.spool = spec.spool;
                    opts.threads = spec.threads;
                    opts.workerId =
                        "local" + std::to_string(w);
                    int rc = 0;
                    try {
                        runSpoolWorker(opts);
                    } catch (const std::exception& ex) {
                        std::fprintf(stderr, "worker error: %s\n",
                                     ex.what());
                        rc = 1;
                    }
                    ::_exit(rc);
                }
                if (pid > 0)
                    children.push_back(pid);
            }
            CoordinatorOptions copts;
            copts.selfExecute = self_execute;
            copts.threads = spec.threads;
            result = runDistributedCampaign(spec, spec_text, resume,
                                            on_task_done, copts);
        } else {
            result = runCampaign(spec, resume, on_task_done);
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        for (const pid_t pid : children)
            ::waitpid(pid, nullptr, 0);
        return 1;
    }
    for (const pid_t pid : children)
        ::waitpid(pid, nullptr, 0);

    if (!quiet) {
        BpOsdStats decoder;
        for (const TaskResult& t : result.tasks)
            mergeStats(decoder, t.decoder);
        std::fprintf(stderr,
                     "[%s] %zu tasks, %zu shots, wall %.1fs, compile "
                     "cache %zu hit / %zu miss (%zu store, %zu B, "
                     "built in %.3fs), dem cache %zu hit / %zu miss "
                     "(%zu store, %zu B, built in %.3fs), decoder "
                     "trivial %.1f%% / memo %.1f%% "
                     "/ mean BP iters %.1f / wave occupancy %.0f%% "
                     "[backend %s, staged chunks %zu]\n",
                     result.name.c_str(), result.tasks.size(),
                     result.totalShots(), result.wallSeconds,
                     result.cache.compileHits,
                     result.cache.compileMisses,
                     result.cache.compileStoreHits,
                     result.cache.compileBytes,
                     result.cache.compileSeconds, result.cache.demHits,
                     result.cache.demMisses,
                     result.cache.demStoreHits, result.cache.demBytes,
                     result.cache.demBuildSeconds,
                     100.0 * decoder.trivialFraction(),
                     100.0 * decoder.memoHitRate(),
                     decoder.meanBpIterations(),
                     100.0 * decoder.waveLaneOccupancy(),
                     decoder.backend.empty() ? "checkpoint"
                                             : decoder.backend.c_str(),
                     decoder.stagedChunks);
        StreamDecodeStats streaming;
        size_t streamed_tasks = 0;
        for (const TaskResult& t : result.tasks) {
            if (!t.streamed)
                continue;
            ++streamed_tasks;
            streaming.merge(t.stream);
        }
        if (streamed_tasks > 0) {
            streaming.computePercentiles();
            std::fprintf(stderr,
                         "[streaming] %zu tasks, %zu windows, latency "
                         "p50 %.1fus / p99 %.1fus / p999 %.1fus / max "
                         "%.1fus, %zu deadline misses (%.2f%%), slab "
                         "occupancy %.0f%%, flushes %zu full / %zu "
                         "deadline / %zu final\n",
                         streamed_tasks, streaming.windows,
                         streaming.p50Us, streaming.p99Us,
                         streaming.p999Us, streaming.latencyMaxUs,
                         streaming.deadlineMisses,
                         100.0 * streaming.deadlineMissFraction(),
                         100.0 * streaming.slabOccupancy(),
                         streaming.flushesFull, streaming.flushesDeadline,
                         streaming.flushesFinal);
        }
        if (!spec.spool.empty()) {
            KvRecord line("[spool]");
            line.putFields(SpoolStats::fields(), result.spool);
            std::fprintf(stderr, "%s\n", line.line().c_str());
        }
    }

    const std::string json = campaignResultToJson(result);
    if (json_path.empty())
        std::fputs(json.c_str(), stdout);
    else if (!writeOutput(json_path, json))
        return 1;
    if (!csv_path.empty() &&
        !writeOutput(csv_path, campaignResultToCsv(result)))
        return 1;

    int failures = 0;
    for (const TaskResult& t : result.tasks)
        if (!t.error.empty())
            ++failures;
    return failures > 0 || checkpoint_failed ? 1 : 0;
}
