/**
 * @file
 * The bb72_stream_paced workload: open-loop paced StreamDecoders.
 *
 * bb72 under Cyclone at p = 5e-4, bench_streaming's serving decoder
 * (min-sum, 16 BP iterations) and deadline policy (flush after an
 * eighth of a round period, deadline one round period). kDecoders
 * decode workers, one thread each, own a StreamDecoder serving
 * kStreamsPerDecoder streams; every stream emits one round slice per
 * compiled round period. Stream phases are staggered evenly across the
 * window period over all workers, so each worker's windows become
 * ready one at a time and each flush is an independent sample.
 * Two workers of eight streams serve sixteen streams in all. Eight
 * streams keep a worker about a third busy; all sixteen on one worker
 * keep it two thirds busy, and queueing then pushes a few percent of
 * windows past the round-period deadline in every run. A second
 * worker doubles the latency samples of a run without that queueing;
 * more workers decoding at once slow each other's tails.
 *
 * Latency is timed from when a window's final slice was *due*, not
 * when it was pushed, so a stalled generator shows up as latency; how
 * late the generator ran is reported separately. A run is kPasses
 * consecutive passes on fresh decoders and shot sets; each pass takes
 * exact order statistics over its committed windows, and the run
 * reports the median pass, so a host disturbance during one pass does
 * not move the result.
 *
 * A window committed after its deadline still carries the correct
 * correction: how many did is a latency figure of the host as much as
 * of the decoder, reported on stderr and as stream.late_windows, and
 * its cost shows in commit_p95_us. Only a window that never commits
 * counts as a failed operation.
 */

#include <cstdio>
#include <limits>
#include <set>
#include <thread>

#include "perfbench.h"

using namespace cyclone;

namespace perfbench {

namespace {

constexpr size_t kDecoders = 2;
constexpr size_t kStreamsPerDecoder = 8;
constexpr size_t kStreams = kDecoders * kStreamsPerDecoder;
/** Consecutive passes per run; latency percentiles are their medians. */
constexpr size_t kPasses = 3;
/** Independent samples (flushes) required beyond a reported tail. */
constexpr size_t kTailSamples = 10;

std::string
streamSpecText(uint64_t seed)
{
    return "name = bb72_stream_paced\nseed = " + std::to_string(seed) +
        "\n\n[task]\nid = bb72_stream_paced\ncode = bb72\narch = cyclone\n"
        "p = 5e-4\nbp = minsum\nbp_iters = 16\nstreaming = on\n"
        "streams = " +
        std::to_string(kStreamsPerDecoder) + "\nstream_flush = deadline\n";
}

double
nowUs()
{
    return nowSeconds() * 1e6;
}

/** What one paced pass measured (one worker, or all merged). */
struct PacedRun
{
    /** Due -> commit latency of every committed window, us. */
    std::vector<double> latencyUs;
    /** Flush (the decoding call) that committed each window. */
    std::vector<size_t> flushOf;
    /** Duration of each call that flushed, us. */
    std::vector<double> flushUs;
    /** Latency minus the flush that committed the window, us. */
    std::vector<double> queueWaitUs;
    /** How late the generator pushed each slice, us. */
    std::vector<double> lagUs;
    /** Committed prediction per shot (window w of global stream g is
     *  shot w * kStreams + g). */
    std::vector<uint64_t> predicted;
    std::vector<bool> committed;
    /** Instant of the last commit, us. */
    double lastCommitUs = 0.0;
    /** Start of pacing to the last commit (merged runs), seconds. */
    double wallSeconds = 0.0;
    StreamDecodeStats stats;
    BpOsdStats decoder;
    std::string error;
};

/** The shared pacing of all workers. */
struct Pacing
{
    const DetectorErrorModel* dem = nullptr;
    const BpOptions* bp = nullptr;
    const ShotBatch* shots = nullptr;
    size_t rounds = 0;
    size_t windows = 0; ///< Windows per stream.
    double periodUs = 0.0;
    double startUs = 0.0;

    /** Due instant of round slice k of global stream g. */
    double
    due(size_t g, size_t k) const
    {
        return startUs + periodUs * static_cast<double>(rounds) *
            static_cast<double>(g) / static_cast<double>(kStreams) +
            periodUs * static_cast<double>(k);
    }
};

/**
 * Worker `worker`: drive its streams (global streams
 * s * kDecoders + worker) through a fresh StreamDecoder in real time.
 */
PacedRun
runWorker(const Pacing& pace, size_t worker, Trace* trace)
{
    BpOsdDecoder decoder(*pace.dem, *pace.bp);
    double lastClockUs = 0.0;
    StreamDecoderOptions options;
    options.streams = kStreamsPerDecoder;
    options.roundsPerWindow = pace.rounds;
    options.policy = FlushPolicy::Deadline;
    options.deadlineUs = pace.periodUs;
    options.flushAfterUs = pace.periodUs / 8.0;
    // The decoder's own clock reads are the ready and commit instants.
    options.nowUs = [&lastClockUs] { return lastClockUs = nowUs(); };
    StreamDecoder stream(decoder, pace.dem->numDetectors, options);

    const size_t S = kStreamsPerDecoder;
    const size_t rounds = pace.rounds;
    const size_t slicesPerStream = pace.windows * rounds;
    auto global = [&](size_t s) { return s * kDecoders + worker; };

    PacedRun run;
    run.predicted.assign(kStreams * pace.windows, 0);
    run.committed.assign(kStreams * pace.windows, false);
    std::vector<size_t> next(S, 0);
    std::vector<BitVec> sources(S);
    std::vector<double> readyUs;
    const double flushAfterUs = options.flushAfterUs;

    auto collect = [&](double callStartUs) {
        if (stream.committed().empty())
            return;
        const double commitUs = lastClockUs;
        const size_t flush = run.flushUs.size();
        run.flushUs.push_back(commitUs - callStartUs);
        for (const CommittedWindow& c : stream.committed()) {
            const size_t g = global(c.stream);
            const double dueUs =
                pace.due(g, (c.windowIndex + 1) * rounds - 1);
            const size_t flat = c.windowIndex * kStreams + g;
            run.latencyUs.push_back(commitUs - dueUs);
            run.flushOf.push_back(flush);
            run.queueWaitUs.push_back(commitUs - dueUs -
                                      run.flushUs.back());
            run.predicted[flat] = c.prediction;
            run.committed[flat] = true;
        }
        stream.committed().clear();
        readyUs.clear();
        run.lastCommitUs = commitUs;
    };

    const double inf = std::numeric_limits<double>::infinity();
    for (;;) {
        size_t nextStream = S;
        double nextDue = inf;
        for (size_t s = 0; s < S; ++s) {
            if (next[s] < slicesPerStream &&
                pace.due(global(s), next[s]) < nextDue) {
                nextDue = pace.due(global(s), next[s]);
                nextStream = s;
            }
        }
        const double nextPoll =
            readyUs.empty() ? inf : readyUs.front() + flushAfterUs;
        const double wake = std::min(nextDue, nextPoll);
        if (wake == inf)
            break;
        // Busy-poll, as a real-time decoder would: a sleeping worker's
        // core idles and other work evicts its caches, so each decode
        // would start cold and its latency would follow the host's load.
        while (nowUs() < wake)
            std::this_thread::yield();

        if (nextDue <= nowUs()) {
            const size_t s = nextStream;
            const size_t k = next[s]++;
            if (k % rounds == 0)
                sources[s] = pace.shots->syndromeOf((k / rounds) * kStreams +
                                                    global(s));
            const double callStart = nowUs();
            run.lagUs.push_back(callStart - nextDue);
            {
                Trace::Scope span(trace, "stream.push");
                stream.pushRound(s, sources[s]);
            }
            if (k % rounds == rounds - 1)
                readyUs.push_back(lastClockUs);
            collect(callStart);
        } else if (nextPoll <= nowUs()) {
            const double callStart = nowUs();
            {
                Trace::Scope span(trace, "stream.poll");
                stream.poll();
            }
            collect(callStart);
        }
    }
    const double callStart = nowUs();
    stream.finish();
    collect(callStart);
    run.stats = stream.stats();
    run.decoder = decoder.stats();
    return run;
}

/** Run every worker on its own thread and merge what they measured. */
PacedRun
runPaced(Pacing pace, Trace* trace)
{
    pace.startUs = nowUs() + 2000.0;
    std::vector<PacedRun> runs(kDecoders);
    {
        std::vector<std::thread> threads;
        for (size_t w = 0; w < kDecoders; ++w)
            threads.emplace_back([&, w] {
                try {
                    runs[w] = runWorker(pace, w, trace);
                } catch (const std::exception& ex) {
                    runs[w].error = ex.what();
                }
            });
        for (std::thread& t : threads)
            t.join();
    }
    PacedRun all = std::move(runs[0]);
    for (size_t w = 1; w < kDecoders; ++w) {
        PacedRun& r = runs[w];
        for (size_t f : r.flushOf)
            all.flushOf.push_back(f + all.flushUs.size());
        auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(all.latencyUs, r.latencyUs);
        append(all.flushUs, r.flushUs);
        append(all.queueWaitUs, r.queueWaitUs);
        append(all.lagUs, r.lagUs);
        for (size_t i = 0; i < r.committed.size(); ++i) {
            if (r.committed[i]) {
                all.predicted[i] = r.predicted[i];
                all.committed[i] = true;
            }
        }
        all.lastCommitUs = std::max(all.lastCommitUs, r.lastCommitUs);
        all.stats.merge(r.stats);
        addDecoderStats(all.decoder, r.decoder);
        if (all.error.empty())
            all.error = r.error;
    }
    all.wallSeconds = (all.lastCommitUs - pace.startUs) / 1e6;
    return all;
}

/** Distinct flushes that committed a window slower than `cut`. */
size_t
flushesBeyond(const PacedRun& run, double cut)
{
    std::set<size_t> flushes;
    for (size_t i = 0; i < run.latencyUs.size(); ++i)
        if (run.latencyUs[i] > cut)
            flushes.insert(run.flushOf[i]);
    return flushes.size();
}

/** Windows of `run` committed more than `deadlineUs` after they were due. */
size_t
lateWindows(const PacedRun& run, double deadlineUs)
{
    size_t late = 0;
    for (double l : run.latencyUs)
        late += l > deadlineUs ? 1 : 0;
    return late;
}

/** A reference decoder and its scratch output, reused across passes. */
struct OfflineDecoder
{
    BpOsdDecoder decoder;
    std::vector<uint64_t> expected;
};

/**
 * Every streamed correction of `run` must equal the offline decode of
 * its window, and every due window must have committed. Returns the
 * logical failures of the offline decode (for the LER check).
 */
size_t
checkAgainstOffline(const PacedRun& run, const ShotBatch& shots,
                    OfflineDecoder& offline, Report& report)
{
    if (!run.error.empty())
        report.fail("stream worker failed: " + run.error);
    offline.decoder.decodeBatch(shots, offline.expected);
    size_t mismatches = 0;
    size_t missing = 0;
    size_t failures = 0;
    for (size_t i = 0; i < shots.numShots; ++i) {
        if (!run.committed[i])
            ++missing;
        else if (run.predicted[i] != offline.expected[i])
            ++mismatches;
        failures += offline.expected[i] != shots.observables[i] ? 1 : 0;
    }
    if (mismatches + missing > 0)
        report.fail(std::to_string(mismatches) +
                    " streamed corrections differ from offline decoding "
                    "and " +
                    std::to_string(missing) + " windows never committed");
    return failures;
}

} // namespace

void
runStreamWorkload(const Options& o, Report& report)
{
    const GeneratedSpec g = makeSpec(streamSpecText(o.seed));
    Trace trace;
    Artifacts art;
    const double setupSeconds =
        setUp(g.spec, art, "", o.trace ? &trace : nullptr).seconds;
    const double periodUs = checkCompiles(art.tasks, report);
    const ResolvedTask& rt = art.tasks.front();
    const DetectorErrorModel& dem = *rt.dem;
    const size_t rounds = rt.rounds;
    const BpOptions& bp = rt.spec->bp;

    Pacing pace;
    pace.dem = &dem;
    pace.bp = &bp;
    pace.rounds = rounds;
    pace.periodUs = periodUs;
    pace.windows = std::max<size_t>(
        1, static_cast<size_t>(o.seconds * 1e6 / kPasses /
                               (periodUs * static_cast<double>(rounds))));
    const size_t total = kStreams * pace.windows;

    // kPasses passes, each on its own shot set from the
    // task seed (window w of global stream g is shot w * kStreams + g),
    // then one traced pass in a traced run.
    std::vector<double> p50s;
    std::vector<double> p95s;
    size_t committed = 0;
    size_t failures = 0;
    double wallSeconds = 0.0;
    double rss = 0.0;
    PacedRun traced;
    ShotBatch tracedShots;
    OfflineDecoder offline{BpOsdDecoder(dem, bp), {}};
    for (size_t pass = 0; pass < kPasses + (o.trace ? 1 : 0); ++pass) {
        const bool tracedPass = pass == kPasses;
        ShotBatch shots;
        {
            Trace::Scope span(tracedPass ? &trace : nullptr, "dem.sample");
            Rng rng(chunkSeed(rt.taskSeed, pass));
            sampleDemBatch(dem, total, rng, shots);
        }
        pace.shots = &shots;
        PacedRun run = runPaced(pace, tracedPass ? &trace : nullptr);
        rss = std::max(rss, peakRssMb());
        failures += checkAgainstOffline(run, shots, offline, report);
        if (tracedPass) {
            traced = std::move(run);
            tracedShots = std::move(shots);
            continue;
        }
        const double p50 = quantile(run.latencyUs, 0.50);
        const double p95 = quantile(run.latencyUs, 0.95);
        const size_t beyond = flushesBeyond(run, p95);
        const size_t late = lateWindows(run, periodUs);
        report.attempted += total;
        report.failed += total - run.latencyUs.size();
        committed += run.latencyUs.size();
        wallSeconds += run.wallSeconds;
        p50s.push_back(p50);
        p95s.push_back(p95);
        std::fprintf(stderr,
                     "[%s] pass %zu: %zu windows over %zu flushes in %.3f "
                     "s: commit p50 %.1f us, p95 %.1f us (%zu flushes "
                     "beyond p95), %zu late, generator lag max %.1f us\n",
                     o.workload.c_str(), pass, run.latencyUs.size(),
                     run.flushUs.size(), run.wallSeconds, p50, p95, beyond,
                     late, quantile(run.lagUs, 1.0));
        // The pass length gives ~17 single-window flushes beyond p95;
        // only queueing behind a host stall merges them, which is a
        // property of the host, not a wrong output.
        if (beyond < kTailSamples)
            std::fprintf(stderr,
                         "[%s] WARNING: only %zu independent flushes lie "
                         "beyond pass %zu's p95\n",
                         o.workload.c_str(), beyond, pass);
    }
    TaskResult ler;
    ler.id = rt.spec->id;
    ler.codeName = rt.spec->codeName;
    ler.architecture = architectureName(rt.spec->architecture);
    ler.physicalError = rt.spec->physicalError;
    ler.logicalErrorRate =
        estimateRate(failures, total * (kPasses + (o.trace ? 1 : 0)));
    checkLer(ler, report);

    if (!o.trace) {
        report.add("setup_s", setupSeconds, "s");
        report.add("shots_per_s",
                   static_cast<double>(committed) / wallSeconds, "1/s");
        report.add("commit_p50_us", median(p50s), "us");
        report.add("commit_p95_us", median(p95s), "us");
        report.add("peak_rss_mb", rss, "MB");
        report.add("sim_round_us", periodUs, "sim_us");
        return;
    }

    addCompilerLayer(art.tasks, trace, report);
    LayerCounts counts;
    counts.addTask(dem, traced.decoder);
    counts.shots = total;
    for (uint64_t word : tracedShots.words)
        counts.detectionEvents +=
            static_cast<size_t>(__builtin_popcountll(word));
    double decodeUs = 0.0;
    for (double f : traced.flushUs)
        decodeUs += f;
    addDecoderLayer(counts, decodeUs / 1e6, trace.total("dem.sample"),
                    report);
    report.add("stream.flush_p50_us", quantile(traced.flushUs, 0.50), "us");
    report.add("stream.flush_max_us", quantile(traced.flushUs, 1.0), "us");
    report.add("stream.queue_wait_p50_us",
               quantile(traced.queueWaitUs, 0.50), "us");
    report.add("stream.queue_wait_p95_us",
               quantile(traced.queueWaitUs, 0.95), "us");
    report.add("stream.slab_occupancy", traced.stats.slabOccupancy(),
               "share");
    report.add("stream.flushes_deadline",
               static_cast<double>(traced.stats.flushesDeadline), "count");
    report.add("stream.flushes_full",
               static_cast<double>(traced.stats.flushesFull), "count");
    report.add("stream.late_windows",
               static_cast<double>(lateWindows(traced, periodUs)), "count");
    report.add("stream.generator_lag_p50_us", quantile(traced.lagUs, 0.50),
               "us");
    report.add("stream.generator_lag_max_us", quantile(traced.lagUs, 1.0),
               "us");
    report.add("trace.overhead",
               quantile(traced.latencyUs, 0.50) / median(p50s), "ratio");
    report.add("trace.spans", static_cast<double>(trace.size()), "count");
    trace.write(o.workDir + "/trace-" + o.workload + ".jsonl");
}

} // namespace perfbench
