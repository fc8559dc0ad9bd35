/**
 * @file
 * Decode-throughput benchmark: scalar per-shot decoding vs the packed
 * batch pipeline vs the lane-parallel wave kernel on the paper's
 * [[72,12,6]] BB code.
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
 * All three paths are bit-identical by construction (enforced by
 * tests/test_shot_batch.cc and tests/test_wave_decoder.cc); this
 * benchmark exists so their speed can't silently rot. Besides the
 * console table it always distills the measured rates into a
 * machine-readable BENCH_decoder.json (override the path with
 * CYCLONE_BENCH_JSON) so CI can track the perf trajectory across PRs
 * and fail if the wave path ever drops below the scalar one.
 *
 * Two more rows decode the DEM a campaign builds for bb72 under the
 * Cyclone architecture at p = 1e-3 (compiled round latency, idle
 * noise) through the wave pipeline, once with spec-default BpOptions
 * (product-sum) and once with min-sum: the decoder users get by
 * default against the one the other rows measure, as the in-binary
 * ratio default_over_minsum.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
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

/** The DEM a campaign builds for bb72/Cyclone at p = 1e-3. */
const DetectorErrorModel&
campaignDem()
{
    static const std::shared_ptr<const DetectorErrorModel> dem = [] {
        const CampaignSpec spec = parseCampaignSpec(
            "name = bench\n[task]\ncode = bb72\narch = cyclone\n"
            "p = 1e-3\n");
        std::vector<ResolvedTask> tasks = resolveTaskIdentities(spec);
        ArtifactCache cache;
        buildTaskArtifacts(tasks[0], cache);
        return tasks[0].dem;
    }();
    return *dem;
}

BpOptions
benchBp(size_t wave_lanes)
{
    BpOptions bp;
    bp.variant = BpOptions::Variant::MinSum;
    bp.waveLanes = wave_lanes;
    return bp;
}

void
attachDecoderCounters(benchmark::State& state, const BpOsdStats& stats)
{
    state.counters["shots_per_sec"] = benchmark::Counter(
        static_cast<double>(stats.decodes),
        benchmark::Counter::kIsRate);
    state.counters["trivial_frac"] = stats.trivialFraction();
    state.counters["memo_rate"] = stats.memoHitRate();
    state.counters["mean_bp_iters"] = stats.meanBpIterations();
    state.counters["wave_occupancy"] = stats.waveLaneOccupancy();
}

void
BM_DecodeScalar(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder decoder(dem, benchBp(1));
    DemShots shots;
    uint64_t chunk = 0;
    for (auto _ : state) {
        Rng rng(chunkSeed(0xbe7c4ULL, chunk++));
        sampleDemInto(dem, kChunkShots, rng, shots);
        uint64_t failures = 0;
        for (size_t s = 0; s < kChunkShots; ++s) {
            if (decoder.decode(shots.syndromes[s]) !=
                shots.observables[s])
                ++failures;
        }
        benchmark::DoNotOptimize(failures);
    }
    attachDecoderCounters(state, decoder.stats());
}

/** Sample and decode one fresh kChunkShots chunk per iteration —
 *  exactly a campaign worker's per-chunk work. */
void
decodeChunks(benchmark::State& state, const DetectorErrorModel& dem,
             BpOsdDecoder& decoder, uint64_t seed)
{
    ShotBatch batch;
    std::vector<uint64_t> predicted;
    uint64_t chunk = 0;
    for (auto _ : state) {
        ChunkPlan plan;
        plan.index = chunk;
        plan.shots = kChunkShots;
        plan.seed = chunkSeed(seed, chunk++);
        const ChunkOutcome outcome =
            runChunk(dem, plan, decoder, batch, predicted);
        benchmark::DoNotOptimize(outcome.failures);
    }
    attachDecoderCounters(state, decoder.stats());
}

/** Batched pipeline; wave_lanes == 1 is the scalar-core batch path. */
void
BM_DecodeBatch(benchmark::State& state, double p, size_t wave_lanes)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder decoder(dem, benchBp(wave_lanes));
    decodeChunks(state, dem, decoder, 0xbe7c4ULL);
}

/** The wave pipeline on the campaign-built DEM with options `bp`. */
void
BM_DecodeCampaignDem(benchmark::State& state, const BpOptions& bp)
{
    const DetectorErrorModel& dem = campaignDem();
    BpOsdDecoder decoder(dem, bp);
    decodeChunks(state, dem, decoder, 0xdefa17ULL);
}

/** The wave pipeline forced onto one rung of the SIMD ladder. */
void
BM_DecodeBatchForcedBackend(benchmark::State& state, double p,
                            const DecoderBackend* backend)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    ::setenv(kWaveBackendEnv, backend->name, 1);
    BpOsdDecoder decoder(dem, benchBp(0));
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
    BpWaveDecoder decoder(graph, benchBp(0), *backend);
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

/** A campaign worker decoding 64-shot chunks one at a time — the
 *  baseline the cross-chunk staging pool is measured against. */
void
BM_DecodeChunk64(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder decoder(dem, benchBp(0));
    ShotBatch batch;
    std::vector<uint64_t> predicted;
    uint64_t chunk = 0;
    for (auto _ : state) {
        for (size_t k = 0; k < kStagingGroup; ++k) {
            ChunkPlan plan;
            plan.index = chunk;
            plan.shots = kSmallChunkShots;
            plan.seed = chunkSeed(0x57a6edULL, chunk++);
            const ChunkOutcome outcome =
                runChunk(dem, plan, decoder, batch, predicted);
            benchmark::DoNotOptimize(outcome.failures);
        }
    }
    attachDecoderCounters(state, decoder.stats());
}

/** The same 64-shot chunks pooled through the staged decode group, so
 *  wave lanes and OSD slabs fill across chunk boundaries. */
void
BM_DecodeStaged(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    BpOsdDecoder decoder(dem, benchBp(0));
    std::vector<ShotBatch> batches;
    std::vector<ChunkPlan> plans(kStagingGroup);
    uint64_t chunk = 0;
    for (auto _ : state) {
        for (size_t k = 0; k < kStagingGroup; ++k) {
            plans[k].index = chunk;
            plans[k].shots = kSmallChunkShots;
            plans[k].seed = chunkSeed(0x57a6edULL, chunk++);
        }
        const ChunkOutcome outcome = runChunkGroup(
            dem, plans.data(), plans.size(), decoder, batches);
        benchmark::DoNotOptimize(outcome.failures);
    }
    attachDecoderCounters(state, decoder.stats());
    state.counters["staged_chunks"] =
        static_cast<double>(decoder.stats().stagedChunks);
}

/** Non-converged (syndrome, posterior) workload for the OSD rows. */
struct OsdWorkload
{
    std::vector<BitVec> syndromes;
    std::vector<std::vector<float>> posteriors;
    /** Fraction of sampled shots whose BP run did not converge. */
    double nonConvergedFrac = 0.0;
};

/** Lazily collected once: the shots of several deterministic chunks
 *  that reach the OSD stage at p, with their BP posteriors. */
const OsdWorkload&
osdWorkload(double p)
{
    static std::mutex mutex;
    static std::map<double, OsdWorkload> cache;
    std::lock_guard<std::mutex> lock(mutex);
    OsdWorkload& work = cache[p];
    if (!work.syndromes.empty())
        return work;
    const DetectorErrorModel& dem = bb72Dem(p);
    BpDecoder bp(dem, benchBp(1));
    DemShots shots;
    size_t total = 0;
    uint64_t chunk = 0;
    while (work.syndromes.size() < 192 && chunk < 32) {
        Rng rng(chunkSeed(0x05dbe7cULL, chunk++));
        sampleDemInto(dem, kChunkShots, rng, shots);
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
BM_OsdScalar(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    const OsdWorkload& work = osdWorkload(p);
    OsdDecoder osd(dem);
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

/** The OSD stage alone, via solveBatch in 64-shot slabs — the same
 *  work the wave pipeline's batched OSD stage performs. */
void
BM_OsdBatch(benchmark::State& state, double p)
{
    const DetectorErrorModel& dem = bb72Dem(p);
    const OsdWorkload& work = osdWorkload(p);
    OsdDecoder osd(dem);
    OsdBatchResult result;
    std::vector<OsdShotRequest> requests;
    size_t solves = 0;
    size_t groups = 0;
    for (auto _ : state) {
        for (size_t base = 0; base < work.syndromes.size();
             base += 64) {
            const size_t count =
                std::min<size_t>(64, work.syndromes.size() - base);
            requests.resize(count);
            for (size_t i = 0; i < count; ++i) {
                requests[i].syndrome = &work.syndromes[base + i];
                requests[i].posteriorLlr =
                    work.posteriors[base + i].data();
            }
            osd.solveBatch(requests.data(), count, result);
            groups += result.stats.groups;
        }
        solves += work.syndromes.size();
    }
    state.counters["syndromes_per_sec"] = benchmark::Counter(
        static_cast<double>(solves), benchmark::Counter::kIsRate);
    state.counters["nonconv_frac"] = work.nonConvergedFrac;
    state.counters["groups_per_solve"] = solves == 0
        ? 0.0
        : static_cast<double>(groups) / static_cast<double>(solves);
}

/** One registered row of the summary JSON. */
struct RowSpec
{
    std::string name;
    std::string path; ///< "scalar", "batch", "wave", "wave_<backend>",
                      ///< "chunk64", "staged", "osd_*", "default",
                      ///< "minsum".
    double p;
};

std::vector<RowSpec>&
rowSpecs()
{
    static std::vector<RowSpec> specs;
    return specs;
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

  private:
    std::map<std::string, std::map<std::string, double>> captured_;
};

/** Distill the captured rows into BENCH_decoder.json. */
void
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

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "bench_decoder: cannot write %s\n",
                     path.c_str());
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"bench_decoder\",\n";
    out << "  \"code\": \"bb72\",\n";
    out << "  \"bp_variant\": \"min-sum; decode_default rows: spec "
           "default (product-sum)\",\n";
    out << "  \"chunk_shots\": " << kChunkShots << ",\n";
    out << "  \"wave_lane_width\": "
        << BpWaveDecoder::resolveLaneWidth(0) << ",\n";
    out << "  \"rows\": [\n";
    bool first = true;
    for (const RowSpec& spec : rowSpecs()) {
        if (!reporter.has(spec.name))
            continue;
        if (!first)
            out << ",\n";
        first = false;
        char buf[512];
        if (spec.path.rfind("osd", 0) == 0) {
            std::snprintf(
                buf, sizeof buf,
                "    {\"name\": \"%s\", \"path\": \"%s\", \"p\": %g, "
                "\"syndromes_per_sec\": %.6g, \"nonconv_frac\": %.6g, "
                "\"groups_per_solve\": %.6g}",
                spec.name.c_str(), spec.path.c_str(), spec.p,
                reporter.value(spec.name, "syndromes_per_sec"),
                reporter.value(spec.name, "nonconv_frac"),
                reporter.value(spec.name, "groups_per_solve"));
        } else {
            std::snprintf(
                buf, sizeof buf,
                "    {\"name\": \"%s\", \"path\": \"%s\", \"p\": %g, "
                "\"shots_per_sec\": %.6g, \"trivial_frac\": %.6g, "
                "\"memo_rate\": %.6g, \"mean_bp_iters\": %.6g, "
                "\"wave_occupancy\": %.6g}",
                spec.name.c_str(), spec.path.c_str(), spec.p,
                reporter.value(spec.name, "shots_per_sec"),
                reporter.value(spec.name, "trivial_frac"),
                reporter.value(spec.name, "memo_rate"),
                reporter.value(spec.name, "mean_bp_iters"),
                reporter.value(spec.name, "wave_occupancy"));
        }
        out << buf;
    }
    out << "\n  ],\n";
    out << "  \"speedups\": {";
    bool first_p = true;
    for (const RowSpec& spec : rowSpecs()) {
        if (spec.path != "scalar")
            continue;
        char suffix[32];
        std::snprintf(suffix, sizeof suffix, "p%g", spec.p);
        const std::string scalar = spec.name;
        const std::string batch = "decode_batch/bb72_" + std::string(suffix);
        const std::string wave = "decode_wave/bb72_" + std::string(suffix);
        if (!reporter.has(batch) || !reporter.has(wave))
            continue;
        const double s = reporter.value(scalar, "shots_per_sec");
        const double b = reporter.value(batch, "shots_per_sec");
        const double w = reporter.value(wave, "shots_per_sec");
        if (s <= 0.0 || b <= 0.0)
            continue;
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s\n    \"%s\": {\"batch_over_scalar\": %.4g, "
                      "\"wave_over_batch\": %.4g, "
                      "\"wave_over_scalar\": %.4g",
                      first_p ? "" : ",", suffix, b / s, w / b, w / s);
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
    // The spec-default decoder against min-sum on the campaign-built
    // DEM: how far the default rule trails the fast one.
    {
        const std::string def = "decode_default/bb72_cyclone_p0.001";
        const std::string ms = "decode_minsum/bb72_cyclone_p0.001";
        const double d = reporter.value(def, "shots_per_sec");
        const double m = reporter.value(ms, "shots_per_sec");
        if (d > 0.0 && m > 0.0) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "%s\n    \"default_over_minsum\": %.4g",
                          first_p ? "" : ",", d / m);
            out << buf;
            first_p = false;
        }
    }
    // Cross-chunk staging against per-chunk decoding of the same
    // 64-shot chunks, with the lane occupancy each achieves.
    {
        const std::string per = "decode_chunk64/bb72_p0.001";
        const std::string pool = "decode_staged/bb72_p0.001";
        if (reporter.has(per) && reporter.has(pool)) {
            const double r = reporter.value(per, "shots_per_sec");
            const double s = reporter.value(pool, "shots_per_sec");
            if (r > 0.0) {
                char buf[240];
                std::snprintf(
                    buf, sizeof buf,
                    "%s\n    \"staging\": "
                    "{\"staged_over_chunk64\": %.4g, "
                    "\"staged_occupancy\": %.4g, "
                    "\"chunk64_occupancy\": %.4g}",
                    first_p ? "" : ",", s / r,
                    reporter.value(pool, "wave_occupancy"),
                    reporter.value(per, "wave_occupancy"));
                out << buf;
                first_p = false;
            }
        }
    }
    out << "\n  }\n";
    out << "}\n";
    std::fprintf(stderr, "bench_decoder: wrote %s\n", path.c_str());
}

void
registerRows()
{
    for (double p : {1e-3, 1e-4}) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "/bb72_p%g", p);
        const std::string suffix = buf;
        const std::string scalar_name = "decode_scalar" + suffix;
        const std::string batch_name = "decode_batch" + suffix;
        const std::string wave_name = "decode_wave" + suffix;
        rowSpecs().push_back({scalar_name, "scalar", p});
        rowSpecs().push_back({batch_name, "batch", p});
        rowSpecs().push_back({wave_name, "wave", p});
        benchmark::RegisterBenchmark(
            scalar_name.c_str(),
            [p](benchmark::State& state) { BM_DecodeScalar(state, p); })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            batch_name.c_str(),
            [p](benchmark::State& state) {
                BM_DecodeBatch(state, p, 1);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            wave_name.c_str(),
            [p](benchmark::State& state) {
                BM_DecodeBatch(state, p, 0);
            })
            ->Unit(benchmark::kMillisecond);
    }

    // Every supported rung of the SIMD ladder, forced through the
    // dispatch override at the operating point. Rows exist only for
    // rungs this host can run, so CI gates must key off presence.
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (b->kernels == nullptr || !b->supported())
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
    // pooled kStagingGroup at a time.
    {
        const std::string per = "decode_chunk64/bb72_p0.001";
        const std::string pool = "decode_staged/bb72_p0.001";
        rowSpecs().push_back({per, "chunk64", 1e-3});
        rowSpecs().push_back({pool, "staged", 1e-3});
        benchmark::RegisterBenchmark(
            per.c_str(),
            [](benchmark::State& state) {
                BM_DecodeChunk64(state, 1e-3);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            pool.c_str(),
            [](benchmark::State& state) {
                BM_DecodeStaged(state, 1e-3);
            })
            ->Unit(benchmark::kMillisecond);
    }

    // Spec-default options and min-sum on the campaign-built DEM.
    {
        const std::string def = "decode_default/bb72_cyclone_p0.001";
        const std::string ms = "decode_minsum/bb72_cyclone_p0.001";
        rowSpecs().push_back({def, "default", 1e-3});
        rowSpecs().push_back({ms, "minsum", 1e-3});
        benchmark::RegisterBenchmark(
            def.c_str(),
            [](benchmark::State& state) {
                BM_DecodeCampaignDem(state, BpOptions{});
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ms.c_str(),
            [](benchmark::State& state) {
                BM_DecodeCampaignDem(state, benchBp(0));
            })
            ->Unit(benchmark::kMillisecond);
    }

    // The OSD stage in isolation, at the operating point where it is
    // a quarter of wave-path decode time. Tracks the batched stage's
    // speedup over the scalar reference and, combined with the wave
    // row, the OSD share of the decode path.
    const double p = 1e-3;
    const std::string osd_scalar = "decode_wave_osd_scalar/bb72_p0.001";
    const std::string osd_batch = "decode_wave_osd/bb72_p0.001";
    rowSpecs().push_back({osd_scalar, "osd_scalar", p});
    rowSpecs().push_back({osd_batch, "osd_batch", p});
    benchmark::RegisterBenchmark(
        osd_scalar.c_str(),
        [p](benchmark::State& state) { BM_OsdScalar(state, p); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        osd_batch.c_str(),
        [p](benchmark::State& state) { BM_OsdBatch(state, p); })
        ->Unit(benchmark::kMillisecond);
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
    writeBenchJson(reporter);
    return 0;
}
