/**
 * @file
 * The batch campaign workloads: bb72_default and hgp225_fig15 run
 * in-process through CampaignEngine, hgp225_fig15_spool runs the same
 * spec text through runDistributedCampaign with forked single-thread
 * spool workers.
 *
 * A metric run sets up cold (median of several builds), then runs
 * whole campaigns on the warm cache for the requested seconds: another
 * repetition starts only if it is expected to finish in time, and at
 * least one always runs. A batch job commits its result when the whole
 * campaign ends, so commit_p50_us/commit_p95_us are order statistics
 * of the repetitions' campaign times (one or two samples). A traced run instead runs the campaign once
 * untraced and once through a replica driven by public calls
 * (AdaptiveSampler, sampleDemBatch, the staged BpOsdDecoder interface)
 * with spans at every layer boundary, and checks that both produce the
 * same per-task shots and failures.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>

#include "perfbench.h"

using namespace cyclone;

namespace perfbench {

namespace {

/** Spec text of a campaign workload; the seed is the run's --seed. */
std::string
campaignSpecText(const std::string& workload, uint64_t seed,
                 size_t threads)
{
    std::string text = "name = " + workload + "\nseed = " +
        std::to_string(seed) + "\nthreads = " + std::to_string(threads) +
        "\n\n[task]\n";
    if (workload == "bb72_default") {
        // Spec defaults everywhere else, decoder included; one full
        // wave of the default 4 x 256-shot chunks.
        text += "id = bb72_default\ncode = bb72\narch = cyclone\n"
                "p = 1e-3\nmax_shots = 1024\ntarget_rel_err = 0\n";
    } else {
        // bench/fig15_hgp_ler.cc's campaign (figureRule(250), min-sum),
        // sized for steadiness: waves of 6 x 32 shots, not 2 x 64. The
        // first stop check then falls at 192 shots, where the cyclone
        // and baseline p = 2e-3 points stop early with probability
        // >= 0.998 and no other point stops (at 128 the cyclone point
        // stops in only ~60% of seeds, so the shot total swung between
        // runs), and half-size decode jobs shorten the idle tail at the
        // end of the campaign.
        text += "id = fig15/hgp225\ncode = hgp225\n"
                "arch = cyclone, baseline-grid\np = 5e-4, 1e-3, 2e-3\n"
                "bp = minsum\nchunk_shots = 32\nchunks_per_wave = 6\n"
                "max_shots = 250\ntarget_rel_err = 0.1\n"
                "min_failures = 8\n";
    }
    return text;
}

size_t
failuresOf(const TaskResult& t)
{
    return t.logicalErrorRate.successes;
}

/** Per-task shots and failures of a campaign. */
struct TaskCounts
{
    std::vector<size_t> shots;
    std::vector<size_t> failures;
};

TaskCounts
countsOf(const std::vector<TaskResult>& tasks)
{
    TaskCounts c;
    for (const TaskResult& t : tasks) {
        c.shots.push_back(t.logicalErrorRate.trials);
        c.failures.push_back(failuresOf(t));
    }
    return c;
}

/** Per-task shots and failures of `tasks` must equal `expected`. */
void
checkSameCounts(const std::vector<TaskResult>& tasks,
                const TaskCounts& expected, const char* what,
                Report& report)
{
    const TaskCounts got = countsOf(tasks);
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (got.shots[i] != expected.shots[i] ||
            got.failures[i] != expected.failures[i]) {
            char msg[256];
            std::snprintf(msg, sizeof msg,
                          "%s: task %s ran %zu shots / %zu failures, "
                          "expected %zu / %zu",
                          what, tasks[i].id.c_str(), got.shots[i],
                          got.failures[i], expected.shots[i],
                          expected.failures[i]);
            report.fail(msg);
        }
    }
}

/** Result checks shared by every campaign run: LER and task errors. */
void
checkCampaign(const CampaignResult& r, Report& report)
{
    for (const TaskResult& t : r.tasks) {
        if (!t.error.empty()) {
            ++report.failed;
            report.fail("task " + t.id + " errored: " + t.error);
            continue;
        }
        checkLer(t, report);
    }
}

void
addCampaignLayer(const CampaignResult& r, size_t threads, double wall,
                 Report& report)
{
    double busy = 0.0;
    size_t chunks = 0;
    size_t earlyStops = 0;
    for (const TaskResult& t : r.tasks) {
        busy += t.sampleSeconds;
        chunks += t.chunks;
        earlyStops += t.stoppedEarly ? 1 : 0;
    }
    report.add("campaign.busy_share",
               busy / (static_cast<double>(threads) * wall), "share");
    report.add("campaign.chunks", static_cast<double>(chunks), "count");
    report.add("campaign.early_stops", static_cast<double>(earlyStops),
               "count");
    report.add("campaign.cache_compile_hits",
               static_cast<double>(r.cache.compileHits), "count");
    report.add("campaign.cache_compile_misses",
               static_cast<double>(r.cache.compileMisses), "count");
    report.add("campaign.cache_dem_hits",
               static_cast<double>(r.cache.demHits), "count");
    report.add("campaign.cache_dem_misses",
               static_cast<double>(r.cache.demMisses), "count");
}

/** What the traced replica measured. */
struct Replica
{
    TaskCounts tasks;
    LayerCounts counts;
    double wall = 0.0;
    std::string error;
};

/**
 * Run the campaign's chunk plans through the public per-layer calls,
 * with the engine's scheduling: every task's waves on one pool of
 * `threads` workers, one decode job per staging group, per-worker
 * decoders, the stopping rule evaluated at wave boundaries.
 */
Replica
runTracedReplica(const std::vector<ResolvedTask>& tasks, size_t threads,
                 Trace& trace)
{
    struct Worker
    {
        std::unique_ptr<BpOsdDecoder> decoder;
        std::vector<ShotBatch> batches;
        size_t shots = 0;
        size_t detectionEvents = 0;
    };
    struct State
    {
        std::optional<AdaptiveSampler> sampler;
        std::vector<Worker> workers;
        size_t outstanding = 0;
        int64_t span = -1;
        int64_t waveSpan = -1;
    };
    struct Done
    {
        size_t task = 0;
        ChunkOutcome outcome;
        std::string error;
    };

    const size_t n = tasks.size();
    std::vector<State> states(n);
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Done> done;
    Replica out;

    const double t0 = nowSeconds();
    const int64_t root = trace.begin("campaign.run");
    {
        ThreadPool pool(threads);
        auto dispatch = [&](size_t i) -> bool {
            State& st = states[i];
            std::vector<ChunkPlan> wave = st.sampler->nextWave();
            if (wave.empty())
                return false;
            st.waveSpan = trace.begin("campaign.wave", st.span);
            const size_t group = std::max<size_t>(
                size_t{1}, tasks[i].spec->stop.stagingChunks);
            st.outstanding = 0;
            for (size_t g = 0; g < wave.size(); g += group) {
                std::vector<ChunkPlan> plans(
                    wave.begin() + static_cast<std::ptrdiff_t>(g),
                    wave.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(g + group, wave.size())));
                ++st.outstanding;
                const int64_t parent = st.waveSpan;
                pool.submit([&, i, parent, plans = std::move(plans)] {
                    Done d;
                    d.task = i;
                    try {
                        const ResolvedTask& rt = tasks[i];
                        Worker& w = states[i].workers[static_cast<size_t>(
                            std::max(0, ThreadPool::workerIndex()))];
                        if (!w.decoder)
                            w.decoder = std::make_unique<BpOsdDecoder>(
                                *rt.dem, rt.spec->bp);
                        if (w.batches.size() < plans.size())
                            w.batches.resize(plans.size());
                        Trace::Scope job(&trace, "campaign.job", parent);
                        w.decoder->beginStaged();
                        for (size_t k = 0; k < plans.size(); ++k) {
                            {
                                Trace::Scope s(&trace, "dem.sample",
                                               job.id());
                                Rng rng(plans[k].seed);
                                sampleDemBatch(*rt.dem, plans[k].shots, rng,
                                               w.batches[k]);
                            }
                            for (uint64_t word : w.batches[k].words)
                                w.detectionEvents += static_cast<size_t>(
                                    __builtin_popcountll(word));
                            w.shots += plans[k].shots;
                            Trace::Scope s(&trace, "decoder.stage",
                                           job.id());
                            w.decoder->stageBatch(w.batches[k]);
                        }
                        {
                            Trace::Scope s(&trace, "decoder.flush",
                                           job.id());
                            w.decoder->flushStaged();
                        }
                        const std::vector<uint64_t>& predicted =
                            w.decoder->stagedPredictions();
                        for (size_t k = 0; k < plans.size(); ++k) {
                            const size_t base =
                                w.decoder->stagedBatchOffset(k);
                            d.outcome.shots += plans[k].shots;
                            for (size_t s = 0; s < plans[k].shots; ++s)
                                if (predicted[base + s] !=
                                    w.batches[k].observables[s])
                                    ++d.outcome.failures;
                        }
                    } catch (const std::exception& ex) {
                        d.error = ex.what();
                    }
                    std::lock_guard<std::mutex> lock(mutex);
                    done.push_back(std::move(d));
                    cv.notify_one();
                });
            }
            return true;
        };

        size_t remaining = 0;
        for (size_t i = 0; i < n; ++i) {
            states[i].workers.resize(pool.size());
            states[i].sampler.emplace(tasks[i].spec->stop,
                                      tasks[i].taskSeed);
            states[i].span = trace.begin("campaign.task", root);
            if (dispatch(i))
                ++remaining;
            else
                trace.end(states[i].span);
        }
        while (remaining > 0) {
            Done d;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !done.empty(); });
                d = std::move(done.front());
                done.pop_front();
            }
            State& st = states[d.task];
            if (!d.error.empty() && out.error.empty())
                out.error = d.error;
            st.sampler->absorb(d.outcome);
            if (--st.outstanding > 0)
                continue;
            trace.end(st.waveSpan);
            if (!d.error.empty() || st.sampler->done() || !dispatch(d.task)) {
                trace.end(st.span);
                --remaining;
            }
        }
    }
    trace.end(root);
    out.wall = nowSeconds() - t0;

    for (size_t i = 0; i < n; ++i) {
        out.tasks.shots.push_back(states[i].sampler->shots());
        out.tasks.failures.push_back(states[i].sampler->failures());
        BpOsdStats taskStats;
        for (const Worker& w : states[i].workers) {
            if (w.decoder)
                addDecoderStats(taskStats, w.decoder->stats());
            out.counts.shots += w.shots;
            out.counts.detectionEvents += w.detectionEvents;
        }
        out.counts.addTask(*tasks[i].dem, taskStats);
    }
    return out;
}

/** The decoder counters of `r` must equal the replica's. */
void
checkSameDecoderWork(const CampaignResult& r, const Replica& replica,
                     Report& report)
{
    BpOsdStats engine;
    for (const TaskResult& t : r.tasks)
        addDecoderStats(engine, t.decoder);
    const BpOsdStats& traced = replica.counts.decoder;
    if (engine.decodes != traced.decodes ||
        engine.osdInvocations != traced.osdInvocations ||
        engine.bpIterations != traced.bpIterations ||
        engine.memoHits != traced.memoHits)
        report.fail("traced replica decoder counters differ from the "
                    "engine's (decodes/osd/bp iterations/memo)");
}

/** Fork one single-thread spool worker; returns its pid. */
pid_t
forkSpoolWorker(const std::string& spool, size_t index)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    int rc = 0;
    try {
        WorkerOptions opts;
        opts.spool = spool;
        opts.threads = 1;
        opts.workerId = "w" + std::to_string(index);
        runSpoolWorker(opts);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "spool worker error: %s\n", ex.what());
        rc = 1;
    }
    ::_exit(rc);
}

} // namespace

void
runCampaignWorkload(const Options& o, Report& report)
{
    const GeneratedSpec g =
        makeSpec(campaignSpecText(o.workload, o.seed, o.threads));
    Trace trace;
    Artifacts art;
    const double setupSeconds =
        setUp(g.spec, art, "", o.trace ? &trace : nullptr).seconds;
    const double roundUs = checkCompiles(art.tasks, report);

    ThreadPool pool(o.threads);
    CampaignEngine engine(pool, *art.cache);
    CampaignResult first;
    std::vector<double> resultLatency;
    double wall = 0.0;
    size_t shots = 0;
    for (size_t rep = 0;; ++rep) {
        const double t0 = nowSeconds();
        CampaignResult r = engine.run(g.spec);
        const double w = nowSeconds() - t0;
        resultLatency.push_back(w * 1e6);
        wall += w;
        shots += r.totalShots();
        report.attempted += r.tasks.size();
        if (rep == 0)
            first = std::move(r);
        else
            checkSameCounts(r.tasks, countsOf(first.tasks),
                            "repeated campaign", report);
        if (o.trace || wall + w > o.seconds)
            break;
    }
    const double rss = peakRssMb();
    std::fprintf(stderr,
                 "[%s] %zu shots in %.3f s over %zu campaign runs, "
                 "setup %.3f s\n",
                 o.workload.c_str(), shots, wall, resultLatency.size(),
                 setupSeconds);
    checkCampaign(first, report);

    if (!o.trace) {
        report.add("setup_s", setupSeconds, "s");
        report.add("shots_per_s", static_cast<double>(shots) / wall, "1/s");
        report.add("commit_p50_us", quantile(resultLatency, 0.50), "us");
        report.add("commit_p95_us", quantile(resultLatency, 0.95), "us");
        report.add("peak_rss_mb", rss, "MB");
        report.add("sim_round_us", roundUs, "sim_us");
        return;
    }

    const Replica replica = runTracedReplica(art.tasks, o.threads, trace);
    if (!replica.error.empty())
        report.fail("traced replica errored: " + replica.error);
    checkSameCounts(first.tasks, replica.tasks,
                    "traced replica vs untraced engine", report);
    checkSameDecoderWork(first, replica, report);
    std::fprintf(stderr, "[trace] untraced %.3f s, traced %.3f s\n", wall,
                 replica.wall);
    addCompilerLayer(art.tasks, trace, report);
    addDecoderLayer(replica.counts, trace.total("decoder.flush") +
                        trace.total("decoder.stage"),
                    trace.total("dem.sample"), report);
    addCampaignLayer(first, o.threads, wall, report);
    report.add("trace.overhead", replica.wall / wall, "ratio");
    report.add("trace.spans", static_cast<double>(trace.size()), "count");
    trace.write(o.workDir + "/trace-" + o.workload + ".jsonl");
}

void
runSpoolWorkload(const Options& o, Report& report)
{
    namespace fs = std::filesystem;
    const std::string root =
        o.workDir + "/spool-" + std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);

    // The in-process workload's exact spec text and seed; the spool
    // directory is set on the parsed spec, not in the text.
    GeneratedSpec g =
        makeSpec(campaignSpecText("hgp225_fig15", o.seed, o.threads));
    Trace trace;
    Artifacts art;
    // Set-up publishes into a spool artifact store, so the timed phase
    // starts warm: the coordinator and workers load, never build.
    const SetUp setup =
        setUp(g.spec, art, root + "/store", o.trace ? &trace : nullptr);
    const double setupSeconds = setup.seconds;
    const double roundUs = checkCompiles(art.tasks, report);
    std::string warmStore =
        root + "/store/rep" + std::to_string(setup.reps - 1);

    CampaignResult first;
    std::vector<double> resultLatency;
    SpoolStats spool;
    double wall = 0.0;
    double busy = 0.0;
    size_t shots = 0;
    for (size_t rep = 0;; ++rep) {
        const std::string dir = root + "/run" + std::to_string(rep);
        fs::create_directories(dir);
        fs::rename(warmStore, dir + "/cache");
        warmStore = dir + "/cache";
        g.spec.spool = dir;

        const double t0 = nowSeconds();
        std::vector<pid_t> workers;
        for (size_t w = 0; w < o.threads; ++w)
            workers.push_back(forkSpoolWorker(dir, w));
        CampaignResult r;
        std::string error;
        try {
            r = runDistributedCampaign(g.spec, g.text);
        } catch (const std::exception& ex) {
            error = ex.what();
        }
        for (const pid_t pid : workers) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                error = "a spool worker exited abnormally";
        }
        const double w = nowSeconds() - t0;
        resultLatency.push_back(w * 1e6);
        if (!error.empty()) {
            report.fail("spool run failed: " + error);
            ++report.failed;
            break;
        }
        wall += w;
        shots += r.totalShots();
        for (const TaskResult& t : r.tasks)
            busy += t.sampleSeconds;
        spool.shardsPublished += r.spool.shardsPublished;
        spool.shardsMerged += r.spool.shardsMerged;
        spool.shardsReclaimed += r.spool.shardsReclaimed;
        spool.transientRetries += r.spool.transientRetries;
        spool.recordsQuarantined += r.spool.recordsQuarantined;
        spool.shardsPoisoned += r.spool.shardsPoisoned;
        for (const TaskResult& t : r.tasks)
            report.failed += t.error.empty() ? 0 : 1;
        if (rep == 0)
            first = std::move(r);
        if (o.trace || wall + w > o.seconds)
            break;
    }
    const double rss = std::max(peakRssMb(), childrenPeakRssMb());
    report.attempted = std::max<size_t>(1, spool.shardsPublished);
    report.failed += spool.shardsReclaimed + spool.recordsQuarantined +
        spool.shardsPoisoned + spool.transientRetries;
    std::fprintf(stderr,
                 "[%s] %zu shots in %.3f s, %zu shards, setup %.3f s\n",
                 o.workload.c_str(), shots, wall, spool.shardsPublished,
                 setupSeconds);

    if (!first.tasks.empty()) {
        checkCampaign(first, report);
        // The decode work is the in-process workload's: per-task shots
        // and failures must match an in-process run of the same spec.
        ThreadPool pool(o.threads);
        CampaignEngine engine(pool, *art.cache);
        checkSameCounts(first.tasks, countsOf(engine.run(g.spec).tasks),
                        "spool vs in-process", report);
    }
    fs::remove_all(root);

    if (!o.trace) {
        report.add("setup_s", setupSeconds, "s");
        report.add("shots_per_s",
                   wall > 0.0 ? static_cast<double>(shots) / wall : 0.0,
                   "1/s");
        report.add("commit_p50_us", quantile(resultLatency, 0.50), "us");
        report.add("commit_p95_us", quantile(resultLatency, 0.95), "us");
        report.add("peak_rss_mb", rss, "MB");
        report.add("sim_round_us", roundUs, "sim_us");
        return;
    }

    // Layer numbers of the spool come from the counters its public API
    // returns; nothing is traced inside the forked workers.
    addCompilerLayer(art.tasks, trace, report);
    LayerCounts counts;
    for (size_t i = 0; i < first.tasks.size(); ++i)
        counts.addTask(*art.tasks[i].dem, first.tasks[i].decoder);
    addDecoderLayer(counts, busy, 0.0, report);
    report.add("spool.busy_share",
               wall > 0.0
                   ? busy / (static_cast<double>(o.threads) * wall)
                   : 0.0,
               "share");
    report.add("spool.shards_published",
               static_cast<double>(spool.shardsPublished), "count");
    report.add("spool.shards_merged",
               static_cast<double>(spool.shardsMerged), "count");
    report.add("spool.reclaimed",
               static_cast<double>(spool.shardsReclaimed), "count");
    report.add("spool.transient_retries",
               static_cast<double>(spool.transientRetries), "count");
    report.add("spool.quarantined",
               static_cast<double>(spool.recordsQuarantined +
                                   spool.shardsPoisoned),
               "count");
    report.add("trace.spans", static_cast<double>(trace.size()), "count");
    trace.write(o.workDir + "/trace-" + o.workload + ".jsonl");
}

} // namespace perfbench
