/**
 * @file
 * Streaming decode service benchmark: serving latency and slab
 * occupancy of the sliding-window front-end on the paper's
 * [[72,12,6]] BB code under the Cyclone architecture at p = 5e-4.
 *
 * Like bench_campaign this is a plain main(): rows pace real
 * wall-clock round arrivals (Google Benchmark's timing loop cannot
 * express a fixed-rate open-loop workload). The round period is the
 * compiled Cyclone makespan of one syndrome round — the same number
 * the campaign engine reports next to the latency percentiles — and
 * the paced rows emit one detector slice per stream per period at
 * absolute deadlines (sleep_until), so backlog from a slow flush
 * shows up in the next windows' latencies instead of silently
 * stretching the clock.
 *
 * The sweep crosses flush policy x stream count, paced at the round
 * period; one unpaced max-rate row measures the cross-stream batch
 * formation at full throttle (the slab-occupancy gate). Every row
 * verifies bit-identity: each committed correction must equal the
 * offline batch decode of the same window, or the bench exits
 * non-zero.
 *
 * Always distills BENCH_streaming.json (override the path with
 * CYCLONE_BENCH_STREAMING_JSON). CI re-runs the bench and gates the
 * reference row's latency_p99_us against the round period and the
 * max-rate row's slab occupancy; the committed copy records the last
 * measured numbers. CYCLONE_SHOTS overrides the max-rate window
 * budget.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/cyclone.h"

using namespace cyclone;

namespace {

size_t
windowBudget()
{
    if (const char* env = std::getenv("CYCLONE_SHOTS")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<size_t>(v);
    }
    return 1024;
}

/**
 * Decoder configuration for the serving rows AND the offline
 * bit-identity reference (they must match exactly). BP is capped at
 * 16 iterations: one wave iteration costs the same however few lanes
 * are occupied, so a straggler lane running to the default cap of 32
 * holds a small deadline flush for most of the round period. Capping
 * BP and letting OSD pick up the non-converged lanes is the standard
 * real-time trade and is what gives the p99 gate its headroom.
 */
BpOptions
servingBpOptions()
{
    BpOptions bp;
    bp.variant = BpOptions::Variant::MinSum;
    bp.maxIterations = 16;
    return bp;
}

struct Row
{
    std::string name;
    bool deadline = false;
    bool paced = false;
    bool reference = false;
    size_t streams = 0;
    size_t windows = 0;
    StreamDecodeStats stats;
    double wallSeconds = 0.0;
    size_t mismatches = 0;
};

/**
 * Drive `windows` windows (cohorts of one window per stream) through
 * a fresh StreamDecoder, verifying every commit against `expected`.
 * Paced rows arrive one round slice per stream per `periodUs` at
 * absolute deadlines and poll at ~period/8 granularity in between,
 * so deadline flushes fire close to their timeout rather than on the
 * next round tick.
 */
Row
runRow(const std::string& name, const DetectorErrorModel& dem,
       const ShotBatch& batch, const std::vector<uint64_t>& expected,
       size_t streams, size_t rounds, bool deadlinePolicy, bool paced,
       bool reference, double periodUs, size_t windows,
       size_t capacityChunks)
{
    BpOptions bp = servingBpOptions();
    BpOsdDecoder decoder(dem, bp);

    StreamDecoderOptions options;
    options.streams = streams;
    options.roundsPerWindow = rounds;
    options.capacityChunks = capacityChunks;
    options.policy = deadlinePolicy ? FlushPolicy::Deadline
                                    : FlushPolicy::FullWave;
    // The serving target: commit within one round period of a window
    // becoming ready. The deadline policy flushes at an eighth of
    // that, leaving the decode the rest of the budget.
    options.deadlineUs = periodUs;
    options.flushAfterUs = deadlinePolicy ? periodUs * 0.125 : 0.0;
    StreamDecoder stream(decoder, dem.numDetectors, options);

    Row row;
    row.name = name;
    row.deadline = deadlinePolicy;
    row.paced = paced;
    row.reference = reference;
    row.streams = streams;
    row.windows = windows;

    auto drain = [&] {
        for (const CommittedWindow& c : stream.committed()) {
            const size_t flat = c.windowIndex * streams + c.stream;
            if (flat >= expected.size() ||
                c.prediction != expected[flat])
                ++row.mismatches;
        }
        stream.committed().clear();
    };

    const size_t cohorts = (windows + streams - 1) / streams;
    std::vector<BitVec> sources(streams);
    const auto t0 = std::chrono::steady_clock::now();
    const std::chrono::duration<double, std::micro> period(periodUs);
    const std::chrono::duration<double, std::micro> pollStep(periodUs /
                                                             16.0);
    for (size_t c = 0; c < cohorts; ++c) {
        for (size_t r = 0; r < rounds; ++r) {
            if (paced) {
                const auto tickDeadline = t0 +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        period * static_cast<double>(c * rounds + r));
                // Poll while waiting so deadline flushes fire near
                // their timeout, not on the next round tick.
                while (std::chrono::steady_clock::now() <
                       tickDeadline) {
                    stream.poll();
                    drain();
                    const auto remaining =
                        tickDeadline - std::chrono::steady_clock::now();
                    std::this_thread::sleep_for(std::min<
                        std::chrono::steady_clock::duration>(
                        remaining,
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            pollStep)));
                }
            }
            for (size_t s = 0; s < streams; ++s) {
                const size_t flat = c * streams + s;
                if (flat >= windows)
                    continue;
                if (r == 0)
                    sources[s] = batch.syndromeOf(flat);
                stream.pushRound(s, sources[s]);
            }
            stream.poll();
            drain();
        }
    }
    stream.finish();
    drain();
    row.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    row.stats = stream.stats();
    row.stats.computePercentiles();
    if (row.stats.windows != windows) {
        std::fprintf(stderr, "%s: committed %zu of %zu windows\n",
                     name.c_str(), row.stats.windows, windows);
        std::exit(1);
    }
    return row;
}

void
printRow(const Row& r, double periodUs)
{
    std::fprintf(
        stderr,
        "%-22s %6zu win  p50 %8.1fus  p99 %8.1fus  max %8.1fus  "
        "miss %5.1f%%  occ %5.1f%%  (%4.2fx period)\n",
        r.name.c_str(), r.windows, r.stats.p50Us, r.stats.p99Us,
        r.stats.latencyMaxUs, 100.0 * r.stats.deadlineMissFraction(),
        100.0 * r.stats.slabOccupancy(),
        periodUs > 0.0 ? r.stats.p99Us / periodUs : 0.0);
}

} // namespace

int
main()
{
    // Resolve and compile the reference operating point exactly as a
    // campaign task would: bb72 under Cyclone, p = 1e-3, rounds =
    // nominal distance, round period = compiled makespan.
    CampaignSpec spec;
    spec.seed = 99;
    TaskSpec task;
    task.codeName = "bb72";
    task.architecture = Architecture::Cyclone;
    // Reference operating point: p = 5e-4, comfortably below
    // threshold. At p = 1e-3 a partial-slab decode costs most of the
    // 52.8ms round period (BP runs near its iteration cap on a third
    // of the shots), leaving no CI headroom for the p99 <= period
    // gate; at 5e-4 the decode fits with margin while the workload
    // stays non-trivial.
    task.physicalError = 5e-4;
    spec.tasks.push_back(task);
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    ArtifactCache cache;
    buildTaskArtifacts(resolved[0], cache);
    const DetectorErrorModel& dem = *resolved[0].dem;
    const size_t rounds = resolved[0].rounds;
    // latencyUs is the compiled makespan of ONE syndrome round.
    const double periodUs = resolved[0].latencyUs;

    // One deterministic shot set serves every row; the offline batch
    // decode of it is the bit-identity reference.
    const size_t budget = windowBudget();
    // Max-rate row: a multiple of the 128-window slab so full-wave
    // occupancy is measured on whole slabs.
    const size_t maxrateWindows = std::max<size_t>(
        size_t{128}, budget - budget % 128);
    // Paced rows run in real time (cohorts x rounds x 52.8ms each),
    // so the cohort count is kept CI-sized.
    const size_t pacedCohorts =
        std::clamp<size_t>(budget / 64, size_t{8}, size_t{32});
    const size_t totalShots =
        std::max(maxrateWindows, pacedCohorts * 16);

    ShotBatch batch;
    Rng rng(chunkSeed(0x57e11a5ULL, 0));
    sampleDemBatch(dem, totalShots, rng, batch);
    std::vector<uint64_t> expected;
    {
        BpOsdDecoder reference(dem, servingBpOptions());
        reference.decodeBatch(batch, expected);
    }

    std::fprintf(stderr,
                 "bb72/cyclone: %zu detectors, %zu rounds/window, "
                 "round period %.1fus (window %.1fus)\n",
                 dem.numDetectors, rounds, periodUs,
                 periodUs * static_cast<double>(rounds));

    std::vector<Row> rows;
    for (const bool deadline : {false, true}) {
        for (const size_t S : {size_t{1}, size_t{4}, size_t{8},
                               size_t{16}}) {
            const std::string name = std::string("paced_") +
                (deadline ? "deadline" : "fullwave") + "_s" +
                std::to_string(S);
            const bool reference = deadline && S == 8;
            rows.push_back(runRow(name, dem, batch, expected, S,
                                  rounds, deadline, true, reference,
                                  periodUs, pacedCohorts * S, 1));
            printRow(rows.back(), periodUs);
        }
    }
    // Full-throttle batch formation: 8 streams feeding 128-window
    // slabs with no pacing. Latency here is meaningless (every
    // window waits for slab formation at max rate); the point is
    // occupancy and throughput.
    rows.push_back(runRow("maxrate_fullwave_s8", dem, batch, expected,
                          8, rounds, false, false, false, periodUs,
                          maxrateWindows, 2));
    printRow(rows.back(), periodUs);

    size_t mismatches = 0;
    for (const Row& r : rows)
        mismatches += r.mismatches;
    if (mismatches > 0) {
        std::fprintf(stderr,
                     "FAIL: %zu streamed corrections differ from "
                     "offline decoding\n",
                     mismatches);
        return 1;
    }
    std::fprintf(stderr,
                 "bit-identity: every streamed correction matches "
                 "offline decoding\n");

    const char* env = std::getenv("CYCLONE_BENCH_STREAMING_JSON");
    const std::string path =
        env != nullptr ? env : "BENCH_streaming.json";
    std::FILE* out = std::fopen((path + ".tmp").c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_streaming\",\n"
                 "  \"code\": \"bb72\",\n  \"arch\": \"cyclone\",\n"
                 "  \"p\": 5e-4,\n  \"detectors\": %zu,\n"
                 "  \"rounds_per_window\": %zu,\n"
                 "  \"round_period_us\": %.4g,\n"
                 "  \"bit_identical\": true,\n  \"rows\": [\n",
                 dem.numDetectors, rounds, periodUs);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        const StreamDecodeStats& s = r.stats;
        std::fprintf(
            out,
            "    {\"name\": \"%s\", \"policy\": \"%s\", "
            "\"paced\": %s, \"reference\": %s, \"streams\": %zu, "
            "\"windows\": %zu,\n     \"latency_p50_us\": %.6g, "
            "\"latency_p99_us\": %.6g, \"latency_p999_us\": %.6g, "
            "\"latency_max_us\": %.6g, \"latency_mean_us\": %.6g,\n"
            "     \"deadline_misses\": %zu, \"miss_fraction\": %.6g, "
            "\"slab_occupancy\": %.6g, \"flushes_full\": %zu, "
            "\"flushes_deadline\": %zu, \"flushes_final\": %zu,\n"
            "     \"wall_seconds\": %.4g, "
            "\"windows_per_sec\": %.6g}%s\n",
            r.name.c_str(), r.deadline ? "deadline" : "full-wave",
            r.paced ? "true" : "false",
            r.reference ? "true" : "false", r.streams, r.windows,
            s.p50Us, s.p99Us, s.p999Us, s.latencyMaxUs,
            s.meanLatencyUs(), s.deadlineMisses,
            s.deadlineMissFraction(), s.slabOccupancy(),
            s.flushesFull, s.flushesDeadline, s.flushesFinal,
            r.wallSeconds,
            r.wallSeconds > 0.0
                ? static_cast<double>(r.windows) / r.wallSeconds
                : 0.0,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    if (std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "cannot publish %s\n", path.c_str());
        return 1;
    }
    return 0;
}
