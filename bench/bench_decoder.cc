/**
 * @file
 * Decode-throughput benchmark: scalar per-shot decoding vs the wave
 * pipeline (the packed batch path on the lane-parallel wave kernel) on
 * the paper's [[72,12,6]] BB code.
 *
 * Each benchmark iteration samples one chunk with a fresh
 * deterministic seed and decodes it — exactly the work a campaign
 * worker does per chunk — and reports shots/second plus the batch
 * fast-path counters. Two physical error rates bracket the regimes:
 * near the paper's operating point (p = 1e-3) most syndromes are
 * non-empty so the wave kernel's SIMD lanes carry the speedup, while
 * sub-threshold (p = 1e-4) ~70% of shots are resolved by the
 * zero-syndrome wave sweep and the duplicate memo before BP runs at
 * all.
 *
 * Both paths are bit-identical by construction (enforced by
 * tests/test_shot_batch.cc and tests/test_wave_decoder.cc); this
 * benchmark exists so their speed can't silently rot. Besides the
 * console table it always distills the measured rates into a
 * machine-readable BENCH_decoder.json (override the path with
 * CYCLONE_BENCH_JSON) so CI can track the perf trajectory across PRs
 * and fail if the wave path ever drops below the scalar one.
 *
 * Every ratio CI gates on two decode rows comes from one paired run:
 * each iteration samples one chunk (or chunk group), both sides decode
 * it, the side that goes first alternates, and each side runs on its
 * own clock, so host drift lands on both sides of the ratio alike.
 * The pairs are scalar against wave at each p (wave_over_scalar),
 * 64-shot chunks decoded one at a time against the same chunks pooled
 * through the staged group (staged_over_chunk64), and spec-default
 * BpOptions (product-sum) against min-sum on the DEM a campaign builds
 * for bb72 under the Cyclone architecture at p = 1e-3 (compiled round
 * latency, idle noise; default_over_minsum): the decoder users get by
 * default against the one the other rows measure.
 *
 * The OSD stage is also timed alone, the scalar reference decode()
 * against the fast path solve() the wave pipeline runs (the "batch"
 * rows, named for that pipeline), on bb72 at p = 1e-3 and on the DEM
 * a campaign builds for hgp225 under Cyclone at p = 1e-3, where
 * nearly every shot reaches OSD (in-binary ratio
 * hgp225_osd_batch_over_scalar).
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "decoder/bp_wave_decoder.h"
#include "decoder/decoder_backend.h"
#include "decoder/osd.h"

namespace cyclone {
namespace bench {
namespace {

constexpr size_t kChunkShots = 512;

/** Lazily built bb72 memory DEM shared by every benchmark row. */
const DetectorErrorModel&
bb72Dem(double p)
{
    struct Entry
    {
        double p;
        std::unique_ptr<DetectorErrorModel> dem;
    };
    static std::mutex mutex;
    static std::vector<Entry> cache;
    std::lock_guard<std::mutex> lock(mutex);
    for (const Entry& e : cache) {
        if (e.p == p)
            return *e.dem;
    }
    const CssCode code = catalog::bb72();
    const SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = code.nominalDistance();
    opts.noise = NoiseModel::uniform(p);
    const Circuit circuit = buildZMemoryCircuit(code, sched, opts);
    cache.push_back(
        {p, std::make_unique<DetectorErrorModel>(
                buildDetectorErrorModel(circuit))});
    return *cache.back().dem;
}

/** The DEM a campaign builds for `code` under Cyclone at p = 1e-3. */
const DetectorErrorModel&
campaignDem(const std::string& code)
{
    static std::mutex mutex;
    static std::map<std::string, std::shared_ptr<const DetectorErrorModel>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<const DetectorErrorModel>& dem = cache[code];
    if (dem == nullptr) {
        const CampaignSpec spec = parseCampaignSpec(
            "name = bench\n[task]\ncode = " + code +
            "\narch = cyclone\np = 1e-3\n");
        std::vector<ResolvedTask> tasks = resolveTaskIdentities(spec);
        ArtifactCache artifacts;
        buildTaskArtifacts(tasks[0], artifacts);
        dem = tasks[0].dem;
    }
    return *dem;
}

BpOptions
benchBp()
{
    BpOptions bp;
    bp.variant = BpOptions::Variant::MinSum;
    return bp;
}

/** The decode counters of one row, named `prefix` + counter. Shots per
 *  second are per second of the run, or per `seconds` when given (one
 *  side of a paired run). */
void
attachDecoderCounters(benchmark::State& state, const BpOsdStats& stats,
                      const std::string& prefix = "",
                      double seconds = 0.0)
{
    const double decodes = static_cast<double>(stats.decodes);
    state.counters[prefix + "shots_per_sec"] = seconds > 0.0
        ? benchmark::Counter(decodes / seconds)
        : benchmark::Counter(decodes, benchmark::Counter::kIsRate);
    state.counters[prefix + "trivial_frac"] = stats.trivialFraction();
    state.counters[prefix + "memo_rate"] = stats.memoHitRate();
    state.counters[prefix + "mean_bp_iters"] = stats.meanBpIterations();
    state.counters[prefix + "wave_occupancy"] =
        stats.waveLaneOccupancy();
}

/** Sample chunk `seed` of `shots` shots into `batch`. */
void
sampleChunk(const DetectorErrorModel& dem, uint64_t seed, size_t shots,
            ShotBatch& batch)
{
    Rng rng(seed);
    sampleDemBatch(dem, shots, rng, batch);
}

/** Shots of `batch` whose prediction misses its observables. */
size_t
countFailures(const ShotBatch& batch, const uint64_t* predicted)
{
    size_t failures = 0;
    for (size_t s = 0; s < batch.numShots; ++s)
        failures += predicted[s] != batch.observables[s];
    return failures;
}

/**
 * The loop of a paired run: each iteration calls sample(i) once for
 * iteration i, then decode(side) for both sides, the side that goes
 * first alternating, each side timed on its own clock. Returns each
 * side's seconds.
 */
template <typename Sample, typename Decode>
std::array<double, 2>
runPaired(benchmark::State& state, Sample sample, Decode decode)
{
    std::array<double, 2> seconds = {0.0, 0.0};
    uint64_t iteration = 0;
    for (auto _ : state) {
        sample(iteration);
        for (size_t k = 0; k < 2; ++k) {
            const size_t side = (iteration + k) % 2;
            const auto start = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(decode(side));
            seconds[side] += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
        }
        ++iteration;
    }
    return seconds;
}

/** Per-shot scalar decoding against the wave pipeline, paired over
 *  the same kChunkShots chunks. Counters carry a "scalar_" or "wave_"
 *  prefix. */
void
BM_DecodeScalarVsWave(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder scalar(dem, benchBp());
    BpOsdDecoder wave(dem, benchBp());
    ShotBatch batch;
    std::vector<BitVec> syndromes(kChunkShots);
    std::vector<uint64_t> predicted(kChunkShots);
    const auto seconds = runPaired(
        state,
        [&](uint64_t chunk) {
            sampleChunk(dem, chunkSeed(0xbe7c4ULL, chunk), kChunkShots,
                        batch);
            for (size_t s = 0; s < kChunkShots; ++s)
                syndromes[s] = batch.syndromeOf(s);
        },
        [&](size_t side) {
            if (side == 0) {
                for (size_t s = 0; s < kChunkShots; ++s)
                    predicted[s] = scalar.decode(syndromes[s]);
            } else {
                wave.decodeBatch(batch, predicted);
            }
            return countFailures(batch, predicted.data());
        });
    attachDecoderCounters(state, scalar.stats(), "scalar_", seconds[0]);
    attachDecoderCounters(state, wave.stats(), "wave_", seconds[1]);
}

/** Sample and decode one fresh kChunkShots chunk per iteration —
 *  exactly a campaign worker's per-chunk work. */
void
decodeChunks(benchmark::State& state, const DetectorErrorModel& dem,
             BpOsdDecoder& decoder, uint64_t seed)
{
    std::vector<ShotBatch> batches;
    uint64_t chunk = 0;
    for (auto _ : state) {
        ChunkPlan plan;
        plan.index = chunk;
        plan.shots = kChunkShots;
        plan.seed = chunkSeed(seed, chunk++);
        const ChunkOutcome outcome =
            runChunkGroup(dem, &plan, 1, decoder, batches);
        benchmark::DoNotOptimize(outcome.failures);
    }
    attachDecoderCounters(state, decoder.stats());
}

/** The wave pipeline on the campaign-built DEM with spec-default
 *  options (product-sum) and with min-sum, paired over the same
 *  chunks. Counters carry a "default_" or "minsum_" prefix. */
void
BM_DecodeDefaultVsMinSum(benchmark::State& state)
{
    const DetectorErrorModel& dem = campaignDem("bb72");
    BpOsdDecoder product_sum(dem, BpOptions{});
    BpOsdDecoder min_sum(dem, benchBp());
    BpOsdDecoder* rules[2] = {&product_sum, &min_sum};
    ShotBatch batch;
    std::vector<uint64_t> predicted;
    const auto seconds = runPaired(
        state,
        [&](uint64_t chunk) {
            sampleChunk(dem, chunkSeed(0xdefa17ULL, chunk), kChunkShots,
                        batch);
        },
        [&](size_t side) {
            rules[side]->decodeBatch(batch, predicted);
            return countFailures(batch, predicted.data());
        });
    attachDecoderCounters(state, product_sum.stats(), "default_",
                          seconds[0]);
    attachDecoderCounters(state, min_sum.stats(), "minsum_", seconds[1]);
}

/** The wave pipeline forced onto one rung of the SIMD ladder. */
void
BM_DecodeBatchForcedBackend(benchmark::State& state, double p,
                            const DecoderBackend* backend)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    ::setenv(kWaveBackendEnv, backend->name, 1);
    BpOsdDecoder decoder(dem, benchBp());
    ::unsetenv(kWaveBackendEnv);
    decodeChunks(state, dem, decoder, 0xbe7c4ULL);
    state.counters["wave_lanes"] =
        static_cast<double>(decoder.waveLaneWidth());
}

/** The wave BP kernel alone — no OSD, no memo, no batch pipeline —
 *  decoding full waves from a fixed pool of non-empty syndromes. This
 *  is the row the SIMD-ladder rung ratio is computed from: the
 *  end-to-end rows above share the width-independent OSD stage, which
 *  dilutes the kernel ratio they were meant to track. */
void
BM_WaveKernelForcedBackend(benchmark::State& state, double p,
                           const DecoderBackend* backend)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    auto graph = std::make_shared<BpGraph>(dem);
    BpWaveDecoder decoder(graph, benchBp(), *backend);
    const size_t lanes = decoder.laneWidth();
    std::vector<BitVec> pool;
    DemShots shots;
    uint64_t chunk = 0;
    while (pool.size() < 256 && chunk < 64) {
        Rng rng(chunkSeed(0xbe7c4ULL, chunk++));
        sampleDemInto(dem, kChunkShots, rng, shots);
        for (const BitVec& syndrome : shots.syndromes) {
            if (!syndrome.isZero())
                pool.push_back(syndrome);
        }
    }
    std::vector<const BitVec*> wave(lanes);
    size_t next = 0;
    size_t decoded = 0;
    uint64_t iters = 0;
    for (auto _ : state) {
        for (size_t l = 0; l < lanes; ++l) {
            wave[l] = &pool[next];
            next = (next + 1) % pool.size();
        }
        decoder.decodeWave(wave.data(), lanes);
        decoded += lanes;
        for (size_t l = 0; l < lanes; ++l)
            iters += decoder.laneIterations(l);
    }
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(decoded), benchmark::Counter::kIsRate);
    state.counters["mean_bp_iters"] = decoded == 0
        ? 0.0
        : static_cast<double>(iters) / static_cast<double>(decoded);
    state.counters["wave_lanes"] = static_cast<double>(lanes);
}

constexpr size_t kSmallChunkShots = 64;
constexpr size_t kStagingGroup = 8;

/** A campaign worker decoding 64-shot chunks one at a time against
 *  the same chunks pooled kStagingGroup at a time through the staged
 *  decode group, so wave lanes and OSD slabs fill across chunk
 *  boundaries; paired over the same chunk groups. Counters carry a
 *  "chunk64_" or "staged_" prefix. */
void
BM_DecodeChunk64VsStaged(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder per_chunk(dem, benchBp());
    BpOsdDecoder staged(dem, benchBp());
    std::vector<ShotBatch> batches(kStagingGroup);
    std::vector<uint64_t> predicted;
    const auto seconds = runPaired(
        state,
        [&](uint64_t group) {
            for (size_t k = 0; k < kStagingGroup; ++k)
                sampleChunk(dem,
                            chunkSeed(0x57a6edULL,
                                      group * kStagingGroup + k),
                            kSmallChunkShots, batches[k]);
        },
        [&](size_t side) {
            size_t failures = 0;
            if (side == 0) {
                for (const ShotBatch& batch : batches) {
                    per_chunk.decodeBatch(batch, predicted);
                    failures += countFailures(batch, predicted.data());
                }
                return failures;
            }
            staged.beginStaged();
            for (const ShotBatch& batch : batches)
                staged.stageBatch(batch);
            staged.flushStaged();
            for (size_t k = 0; k < kStagingGroup; ++k)
                failures += countFailures(
                    batches[k], staged.stagedPredictions().data() +
                                    staged.stagedBatchOffset(k));
            return failures;
        });
    attachDecoderCounters(state, per_chunk.stats(), "chunk64_",
                          seconds[0]);
    attachDecoderCounters(state, staged.stats(), "staged_", seconds[1]);
}

/** Non-converged (syndrome, posterior) workload for the OSD rows. */
struct OsdWorkload
{
    const DetectorErrorModel* dem = nullptr;
    std::vector<BitVec> syndromes;
    std::vector<std::vector<float>> posteriors;
    /** Fraction of sampled shots whose BP run did not converge. */
    double nonConvergedFrac = 0.0;
};

/** Lazily collected once per DEM ("bb72_p0.001" or
 *  "hgp225_cyclone_p0.001"): the shots of whole deterministic chunks
 *  that reach the OSD stage, with their min-sum BP posteriors. */
const OsdWorkload&
osdWorkload(const std::string& dem_name)
{
    static std::mutex mutex;
    static std::map<std::string, OsdWorkload> cache;
    std::lock_guard<std::mutex> lock(mutex);
    OsdWorkload& work = cache[dem_name];
    if (work.dem != nullptr)
        return work;
    // About a third of bb72's shots reach OSD; on hgp225 nearly all
    // do, at 30-40 ms each through the scalar path, so one 64-shot
    // chunk is the whole workload.
    const bool hgp = dem_name == "hgp225_cyclone_p0.001";
    work.dem = hgp ? &campaignDem("hgp225") : &bb72Dem(1e-3);
    const DetectorErrorModel& dem = *work.dem;
    const size_t chunk_shots = hgp ? 64 : kChunkShots;
    const size_t target = hgp ? 32 : 192;
    BpDecoder bp(dem, benchBp());
    DemShots shots;
    size_t total = 0;
    uint64_t chunk = 0;
    while (work.syndromes.size() < target && chunk < 32) {
        Rng rng(chunkSeed(0x05dbe7cULL, chunk++));
        sampleDemInto(dem, chunk_shots, rng, shots);
        for (const BitVec& syndrome : shots.syndromes) {
            ++total;
            if (syndrome.isZero())
                continue;
            if (!bp.decode(syndrome)) {
                work.syndromes.push_back(syndrome);
                work.posteriors.push_back(bp.posteriorLlr());
            }
        }
    }
    work.nonConvergedFrac = total == 0
        ? 0.0
        : static_cast<double>(work.syndromes.size()) /
            static_cast<double>(total);
    return work;
}

/** The OSD stage alone, via the scalar per-shot reference path. */
void
BM_OsdScalar(benchmark::State& state, const std::string& dem_name)
{
    const OsdWorkload& work = osdWorkload(dem_name);
    OsdDecoder osd(*work.dem);
    std::vector<uint8_t> errors;
    size_t solves = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < work.syndromes.size(); ++i) {
            benchmark::DoNotOptimize(
                osd.decode(work.syndromes[i], work.posteriors[i],
                           errors));
        }
        solves += work.syndromes.size();
    }
    state.counters["syndromes_per_sec"] = benchmark::Counter(
        static_cast<double>(solves), benchmark::Counter::kIsRate);
    state.counters["nonconv_frac"] = work.nonConvergedFrac;
}

/** The OSD stage alone, via the fast path solve() shot by shot — the
 *  same work the wave pipeline's OSD stage performs. */
void
BM_OsdBatch(benchmark::State& state, const std::string& dem_name)
{
    const OsdWorkload& work = osdWorkload(dem_name);
    OsdDecoder osd(*work.dem);
    std::vector<uint32_t> flips;
    size_t solves = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < work.syndromes.size(); ++i) {
            benchmark::DoNotOptimize(
                osd.solve(work.syndromes[i], work.posteriors[i], flips));
        }
        solves += work.syndromes.size();
    }
    state.counters["syndromes_per_sec"] = benchmark::Counter(
        static_cast<double>(solves), benchmark::Counter::kIsRate);
    state.counters["nonconv_frac"] = work.nonConvergedFrac;
}

/** One registered row of the summary JSON. */
struct RowSpec
{
    std::string name;
    std::string path; ///< "scalar", "wave", "wave_<backend>",
                      ///< "kernel_<backend>", "chunk64", "staged",
                      ///< "osd_*", "default", "minsum".
    double p;
    /** The run whose counters, named `prefix` + counter, fill the row:
     *  the row's own run when empty. */
    std::string run = {};
    std::string prefix = {};

    const std::string& source() const { return run.empty() ? name : run; }
};

/** The paired run behind the decode_default and decode_minsum rows. */
const std::string kDefaultVsMinSum =
    "decode_default_vs_minsum/bb72_cyclone_p0.001";

std::vector<RowSpec>&
rowSpecs()
{
    static std::vector<RowSpec> specs;
    return specs;
}

/** The summary row named `name`, or nullptr. */
const RowSpec*
findRow(const std::string& name)
{
    for (const RowSpec& spec : rowSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

/** Console reporter that also captures final counter values. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            std::map<std::string, double>& row =
                captured_[run.benchmark_name()];
            for (const auto& [key, counter] : run.counters)
                row[key] = static_cast<double>(counter);
        }
        ConsoleReporter::ReportRuns(runs);
    }

    /** Counter value of a named run, or 0 when absent. */
    double
    value(const std::string& name, const std::string& key) const
    {
        auto row = captured_.find(name);
        if (row == captured_.end())
            return 0.0;
        auto it = row->second.find(key);
        return it == row->second.end() ? 0.0 : it->second;
    }

    bool
    has(const std::string& name) const
    {
        return captured_.count(name) != 0;
    }

    /** Counter `key` of a summary row (see RowSpec::run). */
    double
    value(const RowSpec& spec, const std::string& key) const
    {
        return value(spec.source(), spec.prefix + key);
    }

  private:
    std::map<std::string, std::map<std::string, double>> captured_;
};

/** Distill the captured rows into BENCH_decoder.json; false when the
 *  document cannot be written. */
bool
writeBenchJson(const CaptureReporter& reporter)
{
    // Default to an untracked file: BENCH_decoder.json is the
    // committed CI perf-gate baseline, so refreshing it is an
    // explicit CYCLONE_BENCH_JSON=BENCH_decoder.json opt-in rather
    // than a side effect of any local bench run.
    const char* env = std::getenv("CYCLONE_BENCH_JSON");
    const std::string path = env != nullptr && env[0] != '\0'
        ? env
        : "BENCH_decoder.local.json";

    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"bench_decoder\",\n";
    out << "  \"code\": \"bb72\",\n";
    out << "  \"bp_variant\": \"min-sum; decode_default rows: spec "
           "default (product-sum)\",\n";
    out << "  \"chunk_shots\": " << kChunkShots << ",\n";
    out << "  \"wave_lane_width\": "
        << selectDecoderBackend().backend->kernels()->lanes << ",\n";
    out << "  \"rows\": [\n";
    bool first = true;
    for (const RowSpec& spec : rowSpecs()) {
        if (!reporter.has(spec.source()))
            continue;
        if (!first)
            out << ",\n";
        first = false;
        char buf[512];
        if (spec.path.rfind("osd", 0) == 0) {
            std::snprintf(
                buf, sizeof buf,
                "    {\"name\": \"%s\", \"path\": \"%s\", \"p\": %g, "
                "\"syndromes_per_sec\": %.6g, \"nonconv_frac\": %.6g}",
                spec.name.c_str(), spec.path.c_str(), spec.p,
                reporter.value(spec, "syndromes_per_sec"),
                reporter.value(spec, "nonconv_frac"));
        } else {
            std::snprintf(
                buf, sizeof buf,
                "    {\"name\": \"%s\", \"path\": \"%s\", \"p\": %g, "
                "\"shots_per_sec\": %.6g, \"trivial_frac\": %.6g, "
                "\"memo_rate\": %.6g, \"mean_bp_iters\": %.6g, "
                "\"wave_occupancy\": %.6g}",
                spec.name.c_str(), spec.path.c_str(), spec.p,
                reporter.value(spec, "shots_per_sec"),
                reporter.value(spec, "trivial_frac"),
                reporter.value(spec, "memo_rate"),
                reporter.value(spec, "mean_bp_iters"),
                reporter.value(spec, "wave_occupancy"));
        }
        out << buf;
    }
    out << "\n  ],\n";
    out << "  \"speedups\": {";
    bool first_p = true;
    for (const RowSpec& scalar : rowSpecs()) {
        if (scalar.path != "scalar")
            continue;
        char suffix[32];
        std::snprintf(suffix, sizeof suffix, "p%g", scalar.p);
        const RowSpec* wave =
            findRow("decode_wave/bb72_" + std::string(suffix));
        if (wave == nullptr || !reporter.has(scalar.source()))
            continue;
        const double s = reporter.value(scalar, "shots_per_sec");
        const double w = reporter.value(*wave, "shots_per_sec");
        if (s <= 0.0)
            continue;
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s\n    \"%s\": {\"wave_over_scalar\": %.4g",
                      first_p ? "" : ",", suffix, w / s);
        out << buf;
        // OSD-stage speedup and its share of the wave decode path:
        // time per shot spent in OSD = nonconv_frac / osd_rate, so
        // share = wave_rate x nonconv_frac / osd_rate.
        const std::string osd_scalar =
            "decode_wave_osd_scalar/bb72_" + std::string(suffix);
        const std::string osd_batch =
            "decode_wave_osd/bb72_" + std::string(suffix);
        if (reporter.has(osd_scalar) && reporter.has(osd_batch)) {
            const double os =
                reporter.value(osd_scalar, "syndromes_per_sec");
            const double ob =
                reporter.value(osd_batch, "syndromes_per_sec");
            const double frac =
                reporter.value(osd_batch, "nonconv_frac");
            if (os > 0.0 && ob > 0.0) {
                std::snprintf(buf, sizeof buf,
                              ", \"osd_batch_over_scalar\": %.4g, "
                              "\"wave_osd_share\": %.4g",
                              ob / os, w * frac / ob);
                out << buf;
            }
        }
        out << "}";
        first_p = false;
    }
    // SIMD-ladder rung ratio at the operating point: the L=16 AVX-512
    // kernel against the L=8 AVX2 kernel (present only on hosts that
    // support both). l16_over_l8 is the BP wave kernel alone — the
    // quantity the ladder actually widens; l16_over_l8_e2e is the
    // full chunk pipeline, whose shared OSD stage dilutes the ratio.
    {
        const std::string k8 = "wave_kernel_avx2/bb72_p0.001";
        const std::string k16 = "wave_kernel_avx512/bb72_p0.001";
        if (reporter.has(k8) && reporter.has(k16)) {
            const double w8 = reporter.value(k8, "shots_per_sec");
            const double w16 = reporter.value(k16, "shots_per_sec");
            const double e8 = reporter.value(
                "decode_wave_avx2/bb72_p0.001", "shots_per_sec");
            const double e16 = reporter.value(
                "decode_wave_avx512/bb72_p0.001", "shots_per_sec");
            if (w8 > 0.0) {
                char buf[200];
                std::snprintf(buf, sizeof buf,
                              "%s\n    \"ladder\": "
                              "{\"l16_over_l8\": %.4g",
                              first_p ? "" : ",", w16 / w8);
                out << buf;
                if (e8 > 0.0) {
                    std::snprintf(buf, sizeof buf,
                                  ", \"l16_over_l8_e2e\": %.4g",
                                  e16 / e8);
                    out << buf;
                }
                out << "}";
                first_p = false;
            }
        }
    }
    // The spec-default decoder against min-sum on the same chunks of
    // the campaign-built DEM: how far the default rule trails the fast
    // one.
    {
        const double d =
            reporter.value(kDefaultVsMinSum, "default_shots_per_sec");
        const double m =
            reporter.value(kDefaultVsMinSum, "minsum_shots_per_sec");
        if (d > 0.0 && m > 0.0) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "%s\n    \"default_over_minsum\": %.4g",
                          first_p ? "" : ",", d / m);
            out << buf;
            first_p = false;
        }
    }
    // The batched OSD stage against the scalar reference on the
    // campaign-built hgp225 DEM, where the elimination's dependent
    // tail runs to tens of thousands of candidates per shot.
    {
        const double os = reporter.value(
            "decode_wave_osd_scalar/hgp225_cyclone_p0.001",
            "syndromes_per_sec");
        const double ob = reporter.value(
            "decode_wave_osd/hgp225_cyclone_p0.001", "syndromes_per_sec");
        if (os > 0.0 && ob > 0.0) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "%s\n    \"hgp225_osd_batch_over_scalar\": %.4g",
                          first_p ? "" : ",", ob / os);
            out << buf;
            first_p = false;
        }
    }
    // Cross-chunk staging against per-chunk decoding of the same
    // 64-shot chunks, with the lane occupancy each achieves.
    {
        const RowSpec* per = findRow("decode_chunk64/bb72_p0.001");
        const RowSpec* pool = findRow("decode_staged/bb72_p0.001");
        if (per != nullptr && pool != nullptr &&
            reporter.has(per->source())) {
            const double r = reporter.value(*per, "shots_per_sec");
            const double s = reporter.value(*pool, "shots_per_sec");
            if (r > 0.0) {
                char buf[240];
                std::snprintf(
                    buf, sizeof buf,
                    "%s\n    \"staging\": "
                    "{\"staged_over_chunk64\": %.4g, "
                    "\"staged_occupancy\": %.4g, "
                    "\"chunk64_occupancy\": %.4g}",
                    first_p ? "" : ",", s / r,
                    reporter.value(*pool, "wave_occupancy"),
                    reporter.value(*per, "wave_occupancy"));
                out << buf;
                first_p = false;
            }
        }
    }
    out << "\n  }\n";
    out << "}\n";
    if (!publishBenchJson(path, out.str()))
        return false;
    std::fprintf(stderr, "bench_decoder: wrote %s\n", path.c_str());
    return true;
}

void
registerRows()
{
    // Per-shot scalar decoding against the wave pipeline: one paired
    // run per p fills both rows.
    for (double p : {1e-3, 1e-4}) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "/bb72_p%g", p);
        const std::string suffix = buf;
        const std::string pair = "decode_scalar_vs_decode_wave" + suffix;
        rowSpecs().push_back(
            {"decode_scalar" + suffix, "scalar", p, pair, "scalar_"});
        rowSpecs().push_back(
            {"decode_wave" + suffix, "wave", p, pair, "wave_"});
        benchmark::RegisterBenchmark(
            pair.c_str(),
            [p](benchmark::State& state) {
                BM_DecodeScalarVsWave(state, p);
            })
            ->Unit(benchmark::kMillisecond);
    }

    // Every supported rung of the SIMD ladder, forced through the
    // dispatch override at the operating point. Rows exist only for
    // rungs this host can run, so CI gates must key off presence.
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (!b->supported())
            continue;
        const std::string name =
            std::string("decode_wave_") + b->name + "/bb72_p0.001";
        rowSpecs().push_back(
            {name, std::string("wave_") + b->name, 1e-3});
        benchmark::RegisterBenchmark(
            name.c_str(),
            [b](benchmark::State& state) {
                BM_DecodeBatchForcedBackend(state, 1e-3, b);
            })
            ->Unit(benchmark::kMillisecond);
        const std::string kernel_name =
            std::string("wave_kernel_") + b->name + "/bb72_p0.001";
        rowSpecs().push_back(
            {kernel_name, std::string("kernel_") + b->name, 1e-3});
        benchmark::RegisterBenchmark(
            kernel_name.c_str(),
            [b](benchmark::State& state) {
                BM_WaveKernelForcedBackend(state, 1e-3, b);
            })
            ->Unit(benchmark::kMillisecond);
    }

    // Cross-chunk staging: 64-shot chunks decoded one at a time vs
    // pooled kStagingGroup at a time; one paired run fills both rows.
    {
        const std::string pair =
            "decode_chunk64_vs_decode_staged/bb72_p0.001";
        rowSpecs().push_back({"decode_chunk64/bb72_p0.001", "chunk64",
                              1e-3, pair, "chunk64_"});
        rowSpecs().push_back({"decode_staged/bb72_p0.001", "staged", 1e-3,
                              pair, "staged_"});
        benchmark::RegisterBenchmark(
            pair.c_str(),
            [](benchmark::State& state) {
                BM_DecodeChunk64VsStaged(state, 1e-3);
            })
            ->Unit(benchmark::kMillisecond);
    }

    // Spec-default options and min-sum on the campaign-built DEM: one
    // paired run fills both rows.
    rowSpecs().push_back({"decode_default/bb72_cyclone_p0.001", "default",
                          1e-3, kDefaultVsMinSum, "default_"});
    rowSpecs().push_back({"decode_minsum/bb72_cyclone_p0.001", "minsum",
                          1e-3, kDefaultVsMinSum, "minsum_"});
    benchmark::RegisterBenchmark(kDefaultVsMinSum.c_str(),
                                 BM_DecodeDefaultVsMinSum)
        ->Unit(benchmark::kMillisecond);

    // The OSD stage in isolation, tracking the batched stage's
    // speedup over the scalar reference: on bb72 at the operating
    // point (combined with the wave row, also the OSD share of the
    // decode path), and on the campaign-built hgp225 DEM, where
    // nearly every shot reaches OSD.
    for (const std::string dem_name :
         {"bb72_p0.001", "hgp225_cyclone_p0.001"}) {
        const std::string osd_scalar = "decode_wave_osd_scalar/" + dem_name;
        const std::string osd_batch = "decode_wave_osd/" + dem_name;
        rowSpecs().push_back({osd_scalar, "osd_scalar", 1e-3});
        rowSpecs().push_back({osd_batch, "osd_batch", 1e-3});
        benchmark::RegisterBenchmark(
            osd_scalar.c_str(),
            [dem_name](benchmark::State& state) {
                BM_OsdScalar(state, dem_name);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            osd_batch.c_str(),
            [dem_name](benchmark::State& state) {
                BM_OsdBatch(state, dem_name);
            })
            ->Unit(benchmark::kMillisecond);
    }
}

} // namespace
} // namespace bench
} // namespace cyclone

int
main(int argc, char** argv)
{
    using namespace cyclone::bench;
    registerRows();
    benchmark::Initialize(&argc, argv);
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    return writeBenchJson(reporter) ? 0 : 1;
}
