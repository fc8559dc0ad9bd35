/**
 * @file
 * Tests for the lane-parallel BP wave kernel: bit-exactness against
 * the scalar decoder (convergence, iteration counts, posteriors and
 * hard decisions, per lane), ragged lane groups, early convergence,
 * max-iteration non-convergence, and the batched decode pipeline on
 * every supported rung of the SIMD ladder — including its interplay
 * with the zero-syndrome fast path and the duplicate-syndrome memo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "campaign/adaptive_sampler.h"
#include "circuit/memory_circuit.h"
#include "common/rng.h"
#include "decoder/bp_wave_decoder.h"
#include "decoder/bposd_decoder.h"
#include "decoder/decoder_backend.h"
#include "dem/dem_builder.h"
#include "dem/dem_sampler.h"
#include "env_guard.h"
#include "qec/classical_code.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

/** Hand-built repetition-code DEM: chain of detectors. */
DetectorErrorModel
repetitionDem(size_t n, double p)
{
    DetectorErrorModel dem;
    dem.numDetectors = n - 1;
    dem.numObservables = 1;
    for (size_t i = 0; i < n; ++i) {
        DemMechanism m;
        m.probability = p;
        if (i > 0)
            m.detectors.push_back(static_cast<uint32_t>(i - 1));
        if (i < n - 1)
            m.detectors.push_back(static_cast<uint32_t>(i));
        m.observables = i == n - 1 ? 1 : 0;
        dem.mechanisms.push_back(std::move(m));
    }
    return dem;
}

DetectorErrorModel
surface13Dem(double p, size_t rounds = 2)
{
    CssCode code = makeHgpCode(ClassicalCode::repetition(3), 3);
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = rounds;
    opts.noise = NoiseModel::uniform(p);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);
    return buildDetectorErrorModel(circuit);
}

/** What the scalar decoder did on one syndrome. */
struct ScalarRef
{
    bool converged = false;
    size_t iterations = 0;
    std::vector<float> posterior;
    BitVec hard;
};

ScalarRef
scalarReference(BpDecoder& bp, const BitVec& syndrome)
{
    ScalarRef ref;
    ref.converged = bp.decode(syndrome);
    ref.iterations = bp.lastIterations();
    ref.posterior = bp.posteriorLlr();
    ref.hard = bp.hardDecision();
    return ref;
}

/**
 * Decode `syndromes` in lane groups through a BpWaveDecoder on
 * `backend` and require every lane to reproduce the scalar decoder
 * bit-for-bit: convergence flag, iteration count, every posterior
 * float and every hard-decision bit.
 */
void
expectWaveMatchesScalar(const DetectorErrorModel& dem, BpOptions options,
                        const std::vector<BitVec>& syndromes,
                        const std::string& label,
                        const DecoderBackend& backend)
{
    auto graph = std::make_shared<const BpGraph>(dem);
    BpDecoder scalar(graph, options);
    BpWaveDecoder wave(graph, options, backend);
    const size_t L = wave.laneWidth();

    std::vector<float> lane_posterior;
    BitVec lane_hard;
    const BitVec* lanes[64];
    for (size_t group = 0; group < syndromes.size(); group += L) {
        const size_t count = std::min(L, syndromes.size() - group);
        for (size_t i = 0; i < count; ++i)
            lanes[i] = &syndromes[group + i];
        wave.decodeWave(lanes, count);
        for (size_t i = 0; i < count; ++i) {
            const ScalarRef ref =
                scalarReference(scalar, syndromes[group + i]);
            ASSERT_EQ(wave.laneConverged(i), ref.converged)
                << label << " group=" << group << " lane=" << i;
            ASSERT_EQ(wave.laneIterations(i), ref.iterations)
                << label << " group=" << group << " lane=" << i;
            wave.lanePosterior(i, lane_posterior);
            ASSERT_EQ(lane_posterior.size(), ref.posterior.size());
            for (size_t v = 0; v < lane_posterior.size(); ++v) {
                // Exact float equality: lanes must not perturb the
                // arithmetic in any way.
                ASSERT_EQ(lane_posterior[v], ref.posterior[v])
                    << label << " group=" << group << " lane=" << i
                    << " var=" << v;
            }
            wave.laneHardDecision(i, lane_hard);
            ASSERT_EQ(lane_hard, ref.hard)
                << label << " group=" << group << " lane=" << i;
        }
    }
}

std::vector<BitVec>
sampledSyndromes(const DetectorErrorModel& dem, size_t shots,
                 uint64_t seed)
{
    Rng rng(seed);
    DemShots sampled;
    sampleDemInto(dem, shots, rng, sampled);
    return std::move(sampled.syndromes);
}

/** expectWaveMatchesScalar on every rung this host supports. */
void
expectEveryRungMatchesScalar(const DetectorErrorModel& dem,
                             const BpOptions& options,
                             const std::vector<BitVec>& syndromes,
                             const std::string& tag)
{
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (b->supported())
            expectWaveMatchesScalar(dem, options, syndromes,
                                    tag + " " + b->name, *b);
    }
}

TEST(WaveDecoder, RegistryHasOneWidthPerRung)
{
    EnvGuard noOverride(kWaveBackendEnv, nullptr);

    // avx512 (L=16) -> avx2 (L=8) -> generic (L=4) on x86-64 builds,
    // generic alone elsewhere: widest rung first, one lane width per
    // rung, and the always-supported generic rung last.
#if defined(__x86_64__)
    const std::vector<std::string> expected = {"avx512", "avx2",
                                               "generic"};
#else
    const std::vector<std::string> expected = {"generic"};
#endif
    const std::map<std::string, size_t> width = {
        {"avx512", 16}, {"avx2", 8}, {"generic", 4}};
    const auto& registry = decoderBackendRegistry();
    ASSERT_EQ(registry.size(), expected.size());
    for (size_t i = 0; i < registry.size(); ++i) {
        EXPECT_EQ(registry[i]->name, expected[i]);
        EXPECT_EQ(registry[i]->kernels()->lanes, width.at(expected[i]));
        EXPECT_EQ(findDecoderBackend(expected[i]), registry[i]);
    }
    EXPECT_TRUE(registry.back()->supported());
    EXPECT_EQ(findDecoderBackend("scalar"), nullptr);

    // Auto dispatch takes the first rung this host supports; the
    // argument of selectDecoderBackend is unread.
    const DecoderBackend* first = nullptr;
    for (const DecoderBackend* b : registry) {
        if (b->supported()) {
            first = b;
            break;
        }
    }
    for (size_t unread : {size_t{0}, size_t{1}, size_t{8}, size_t{16}})
        EXPECT_EQ(selectDecoderBackend(unread).backend, first);
}

TEST(WaveDecoder, EnvOverrideForcesDispatch)
{
    // Every supported rung can be forced by name through
    // CYCLONE_WAVE_BACKEND, and other values — unknown names,
    // "scalar" among them, "auto" and "" — fall back to auto dispatch
    // instead of stranding the decode.
    EnvGuard autoGuard(kWaveBackendEnv, nullptr);
    const DecoderBackend* autoBackend = selectDecoderBackend().backend;

    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (!b->supported())
            continue;
        EnvGuard guard(kWaveBackendEnv, b->name);
        EXPECT_EQ(selectDecoderBackend().backend, b) << b->name;
    }

    const auto dem = surface13Dem(0.01);
    Rng rng(11);
    ShotBatch batch;
    sampleDemBatch(dem, 96, rng, batch);
    for (const char* name : {"no-such-backend", "scalar", "auto", ""}) {
        EnvGuard guard(kWaveBackendEnv, name);
        EXPECT_EQ(selectDecoderBackend().backend, autoBackend) << name;
        BpOsdDecoder decoder(dem, BpOptions{});
        EXPECT_STREQ(decoder.backendName(), autoBackend->name) << name;
        std::vector<uint64_t> got;
        decoder.decodeBatch(batch, got);
        EXPECT_GT(decoder.stats().waveGroups, 0u) << name;
        EXPECT_EQ(decoder.stats().backend, autoBackend->name) << name;
    }
}

TEST(WaveDecoder, BackendMatrixBitExactAgainstScalar)
{
    // Every supported rung must reproduce the scalar decoder
    // bit-for-bit under both BP variants: on an AVX-512 host avx512
    // L=16, avx2 L=8 and generic L=4 in one run. 48 shots fill whole
    // groups on every rung; 70 end in a ragged group on each.
    const auto dem = surface13Dem(0.01);
    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum}) {
        BpOptions options;
        options.variant = variant;
        const std::string tag =
            variant == BpOptions::Variant::MinSum ? "min-sum"
                                                  : "product-sum";
        expectEveryRungMatchesScalar(dem, options,
                                     sampledSyndromes(dem, 48, 0xbead),
                                     tag + " surface13-48");
        expectEveryRungMatchesScalar(dem, options,
                                     sampledSyndromes(dem, 70, 0xabc),
                                     tag + " surface13-70");
    }

    // A zero tanh on a check next to saturated rows: a p = 0.5
    // mechanism has a prior of exactly 0, so its first incoming
    // message is 0 and its tanh falls below 1e-12, while a p = 1e-9
    // mechanism's prior (~20.7) saturates its rows from the first
    // pass. The product-sum pass shares one message among a check's
    // saturated rows; here it must be the zeroed one.
    auto chain = repetitionDem(24, 1e-9);
    for (size_t i = 0; i < chain.mechanisms.size(); i += 3)
        chain.mechanisms[i].probability = 0.5;
    BpOptions productSum;
    productSum.variant = BpOptions::Variant::ProductSum;
    expectEveryRungMatchesScalar(chain, productSum,
                                 sampledSyndromes(chain, 48, 0x2e70),
                                 "zero-tanh chain");
}

TEST(WaveDecoder, RaggedGroupsMatchScalarAtEveryCount)
{
    // A partial lane group must behave exactly like a full one: idle
    // lanes are frozen from the start and never perturb real ones.
    // 15 shots end in a group of 15, 7 and 3 on the L = 16, 8 and 4
    // rungs.
    const auto dem = surface13Dem(0.012);
    const auto syndromes = sampledSyndromes(dem, 15, 0x7a9);
    ASSERT_EQ(syndromes.size(), 15u);
    const BpOptions options;
    expectEveryRungMatchesScalar(dem, options, syndromes, "ragged-15");

    // And a count of 1: the degenerate single-lane wave.
    std::vector<BitVec> one(syndromes.begin(), syndromes.begin() + 1);
    expectEveryRungMatchesScalar(dem, options, one, "ragged-1");
}

TEST(WaveDecoder, AllLanesConvergeEarlyFreezeIsExact)
{
    // Single-fault syndromes on a repetition chain: BP converges on
    // every lane within a few iterations, at lane-dependent times, so
    // the per-lane freeze logic is exercised while the whole group
    // still finishes well before maxIterations.
    const auto dem = repetitionDem(24, 0.02);
    std::vector<BitVec> syndromes;
    for (size_t v = 0; v < dem.mechanisms.size(); ++v) {
        BitVec syndrome(dem.numDetectors);
        for (uint32_t d : dem.mechanisms[v].detectors)
            syndrome.set(d, true);
        syndromes.push_back(std::move(syndrome));
    }
    const BpOptions options;
    expectEveryRungMatchesScalar(dem, options, syndromes, "single-faults");

    auto graph = std::make_shared<const BpGraph>(dem);
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (!b->supported())
            continue;
        BpWaveDecoder wave(graph, options, *b);
        const size_t L = wave.laneWidth();
        const BitVec* lanes[16];
        for (size_t i = 0; i < L; ++i)
            lanes[i] = &syndromes[i + 1];
        wave.decodeWave(lanes, L);
        for (size_t i = 0; i < L; ++i) {
            EXPECT_TRUE(wave.laneConverged(i))
                << b->name << " lane " << i;
            EXPECT_LT(wave.laneIterations(i), options.maxIterations)
                << b->name << " lane " << i;
        }
    }
}

TEST(WaveDecoder, MaxIterationNonConvergenceMatchesScalar)
{
    // A starved iteration budget forces the non-convergence epilogue
    // (final posterior pass + last-chance verification) on most lanes.
    const auto dem = surface13Dem(0.02);
    const auto syndromes = sampledSyndromes(dem, 40, 0x90d);
    for (size_t max_iters : {0u, 1u, 3u}) {
        BpOptions options;
        options.maxIterations = max_iters;
        expectEveryRungMatchesScalar(dem, options, syndromes, "starved");
    }
}

/** Decode every scalar-sampled shot with a fresh decoder. */
std::vector<uint64_t>
scalarPredictions(const DetectorErrorModel& dem, const DemShots& shots,
                  const BpOptions& bp, BpOsdStats* stats_out = nullptr)
{
    BpOsdDecoder decoder(dem, bp);
    std::vector<uint64_t> out;
    out.reserve(shots.syndromes.size());
    for (const BitVec& syndrome : shots.syndromes)
        out.push_back(decoder.decode(syndrome));
    if (stats_out != nullptr)
        *stats_out = decoder.stats();
    return out;
}

TEST(WaveDecoder, DecodeBatchBitIdenticalOnEveryRung)
{
    // The full batched pipeline (fast path + memo + wave kernel +
    // OSD fallback) must produce identical predictions AND identical
    // aggregate statistics to per-shot decoding on every rung.
    const auto dem = surface13Dem(0.008);
    const size_t shots = 180;
    Rng scalar_rng(41);
    DemShots scalar_shots;
    sampleDemInto(dem, shots, scalar_rng, scalar_shots);
    Rng batch_rng(41);
    ShotBatch batch;
    sampleDemBatch(dem, shots, batch_rng, batch);

    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum}) {
        BpOptions bp;
        bp.variant = variant;
        BpOsdStats scalar_stats;
        const std::vector<uint64_t> expected =
            scalarPredictions(dem, scalar_shots, bp, &scalar_stats);
        EXPECT_EQ(scalar_stats.waveGroups, 0u);
        EXPECT_DOUBLE_EQ(scalar_stats.waveLaneOccupancy(), 0.0);

        for (const DecoderBackend* b : decoderBackendRegistry()) {
            if (!b->supported())
                continue;
            EnvGuard guard(kWaveBackendEnv, b->name);
            BpOsdDecoder decoder(dem, bp);
            const size_t lanes = b->kernels()->lanes;
            EXPECT_EQ(decoder.waveLaneWidth(), lanes);
            EXPECT_STREQ(decoder.backendName(), b->name);
            std::vector<uint64_t> got;
            decoder.decodeBatch(batch, got);
            ASSERT_EQ(got.size(), shots);
            for (size_t s = 0; s < shots; ++s)
                ASSERT_EQ(got[s], expected[s])
                    << b->name << " s=" << s;

            const BpOsdStats& st = decoder.stats();
            EXPECT_EQ(st.decodes, scalar_stats.decodes);
            EXPECT_EQ(st.bpConverged, scalar_stats.bpConverged);
            EXPECT_EQ(st.osdInvocations, scalar_stats.osdInvocations);
            EXPECT_EQ(st.osdFailures, scalar_stats.osdFailures);
            EXPECT_EQ(st.trivialShots, scalar_stats.trivialShots);
            EXPECT_EQ(st.bpIterations, scalar_stats.bpIterations);

            // Lane accounting: every distinct non-trivial syndrome
            // occupies exactly one filled lane slot.
            const size_t distinct =
                st.decodes - st.trivialShots - st.memoHits;
            EXPECT_EQ(st.waveLanesFilled, distinct);
            EXPECT_EQ(st.waveLaneSlots, st.waveGroups * lanes);
            EXPECT_GE(st.waveLaneSlots, st.waveLanesFilled);
            EXPECT_GT(st.waveLaneOccupancy(), 0.0);
            EXPECT_LE(st.waveLaneOccupancy(), 1.0);
        }
    }
}

TEST(WaveDecoder, DescendingDetectorListsDecodeLikeTheirAscendingTwin)
{
    // BpGraph lays out each variable's edges in ascending check
    // order, so a mechanism listing its detectors in descending order
    // decodes exactly like its ascending twin — on the scalar core and
    // on every rung — and the wave scatter pass stays bit-exact.
    DetectorErrorModel dem;
    dem.numDetectors = 6;
    dem.numObservables = 1;
    for (size_t i = 0; i + 1 < dem.numDetectors; ++i) {
        DemMechanism m;
        m.probability = 0.04;
        m.detectors.push_back(static_cast<uint32_t>(i + 1));
        m.detectors.push_back(static_cast<uint32_t>(i)); // descending
        m.observables = i == 0 ? 1 : 0;
        dem.mechanisms.push_back(std::move(m));
    }
    DetectorErrorModel twin = dem;
    for (DemMechanism& m : twin.mechanisms)
        std::sort(m.detectors.begin(), m.detectors.end());

    expectEveryRungMatchesScalar(dem, BpOptions{},
                                 sampledSyndromes(dem, 40, 0x51),
                                 "descending");

    const size_t shots = 200;
    Rng scalar_rng(0x52);
    DemShots scalar_shots;
    sampleDemInto(dem, shots, scalar_rng, scalar_shots);
    Rng batch_rng(0x52);
    ShotBatch batch;
    sampleDemBatch(dem, shots, batch_rng, batch);
    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum}) {
        BpOptions bp;
        bp.variant = variant;
        BpOsdStats desc_stats;
        BpOsdStats twin_stats;
        EXPECT_EQ(scalarPredictions(dem, scalar_shots, bp, &desc_stats),
                  scalarPredictions(twin, scalar_shots, bp, &twin_stats))
            << "scalar core";
        EXPECT_EQ(deterministicMismatch(desc_stats, twin_stats), "")
            << "scalar core";

        for (const DecoderBackend* b : decoderBackendRegistry()) {
            if (!b->supported())
                continue;
            EnvGuard guard(kWaveBackendEnv, b->name);
            BpOsdDecoder desc_decoder(dem, bp);
            BpOsdDecoder twin_decoder(twin, bp);
            std::vector<uint64_t> desc_got;
            std::vector<uint64_t> twin_got;
            desc_decoder.decodeBatch(batch, desc_got);
            twin_decoder.decodeBatch(batch, twin_got);
            EXPECT_EQ(desc_got, twin_got) << b->name;
            EXPECT_EQ(deterministicMismatch(desc_decoder.stats(),
                                            twin_decoder.stats()),
                      "")
                << b->name;
        }
    }
}

TEST(WaveDecoder, MemoInterplayReplaysWaveOutcomes)
{
    // Tiny DEM at high p: a 512-shot batch holds only a handful of
    // distinct syndromes, so the wave kernel sees each exactly once
    // and the memo replays its outcome onto every duplicate.
    const auto dem = repetitionDem(5, 0.2);
    const size_t shots = 512;
    Rng scalar_rng(3);
    DemShots scalar_shots;
    sampleDemInto(dem, shots, scalar_rng, scalar_shots);
    Rng batch_rng(3);
    ShotBatch batch;
    sampleDemBatch(dem, shots, batch_rng, batch);

    BpOsdStats scalar_stats;
    const std::vector<uint64_t> expected = scalarPredictions(
        dem, scalar_shots, BpOptions{}, &scalar_stats);

    BpOsdDecoder decoder(dem, BpOptions{});
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    for (size_t s = 0; s < shots; ++s)
        ASSERT_EQ(got[s], expected[s]) << "s=" << s;

    const BpOsdStats& st = decoder.stats();
    EXPECT_EQ(st.decodes, shots);
    EXPECT_EQ(st.bpConverged, scalar_stats.bpConverged);
    EXPECT_EQ(st.bpIterations, scalar_stats.bpIterations);
    EXPECT_GT(st.memoHits, shots / 2);
    EXPECT_EQ(st.waveLanesFilled,
              st.decodes - st.trivialShots - st.memoHits);
    // Replaying the same batch with a fresh decoder re-seeds the memo
    // and decodes the same distinct syndromes again.
    BpOsdDecoder fresh(dem, BpOptions{});
    std::vector<uint64_t> again;
    fresh.decodeBatch(batch, again);
    EXPECT_EQ(fresh.stats().memoHits, st.memoHits);
    EXPECT_EQ(fresh.stats().waveLanesFilled, st.waveLanesFilled);
}

TEST(WaveDecoder, StagedPoolBitIdenticalToPerBatchDecoding)
{
    // Cross-chunk syndrome staging regroups lanes but must change no
    // prediction and no per-shot statistic: the decode of a distinct
    // syndrome is a pure function of that syndrome. Only grouping
    // counters (memoHits, waveGroups, occupancy, stagedChunks) may
    // move.
    const auto dem = surface13Dem(0.012);
    const size_t kChunks = 5;
    const size_t kShots = 48; // Small: ragged per-chunk tail groups.

    std::vector<ShotBatch> batches(kChunks);
    for (size_t k = 0; k < kChunks; ++k) {
        Rng rng(0x1000 + k);
        sampleDemBatch(dem, kShots, rng, batches[k]);
    }

    const BpOptions bp;

    // Reference: each chunk through its own decodeBatch on a fresh
    // decoder (memo scoped per chunk, like stagingChunks = 1).
    std::vector<std::vector<uint64_t>> perChunk(kChunks);
    BpOsdStats sum;
    for (size_t k = 0; k < kChunks; ++k) {
        BpOsdDecoder decoder(dem, bp);
        decoder.decodeBatch(batches[k], perChunk[k]);
        const BpOsdStats& s = decoder.stats();
        sum.decodes += s.decodes;
        sum.bpConverged += s.bpConverged;
        sum.osdInvocations += s.osdInvocations;
        sum.osdFailures += s.osdFailures;
        sum.trivialShots += s.trivialShots;
        sum.memoHits += s.memoHits;
        sum.bpIterations += s.bpIterations;
        sum.waveGroups += s.waveGroups;
        sum.waveLaneSlots += s.waveLaneSlots;
        sum.waveLanesFilled += s.waveLanesFilled;
        EXPECT_EQ(s.stagedChunks, 0u); // Plain decodeBatch never stages.
    }

    // Staged: all chunks pooled into one group.
    BpOsdDecoder staged(dem, bp);
    staged.beginStaged();
    for (size_t k = 0; k < kChunks; ++k)
        staged.stageBatch(batches[k]);
    staged.flushStaged();

    for (size_t k = 0; k < kChunks; ++k) {
        const size_t base = staged.stagedBatchOffset(k);
        for (size_t s = 0; s < kShots; ++s)
            ASSERT_EQ(staged.stagedPredictions()[base + s],
                      perChunk[k][s])
                << "chunk=" << k << " s=" << s;
    }

    const BpOsdStats& st = staged.stats();
    // Per-shot statistics are exactly the per-chunk sums...
    EXPECT_EQ(st.decodes, sum.decodes);
    EXPECT_EQ(st.bpConverged, sum.bpConverged);
    EXPECT_EQ(st.osdInvocations, sum.osdInvocations);
    EXPECT_EQ(st.osdFailures, sum.osdFailures);
    EXPECT_EQ(st.trivialShots, sum.trivialShots);
    EXPECT_EQ(st.bpIterations, sum.bpIterations);
    // ...while grouping counters reflect the pooling: duplicates now
    // dedupe across chunks, and the pool packs at least as tightly.
    EXPECT_GE(st.memoHits, sum.memoHits);
    EXPECT_EQ(st.stagedChunks, kChunks - 1);
    EXPECT_LE(st.waveGroups, sum.waveGroups);
    const size_t distinct = st.decodes - st.trivialShots - st.memoHits;
    EXPECT_EQ(st.waveLanesFilled, distinct);
    // Full pool, one ragged tail group at most.
    EXPECT_LE(st.waveLaneSlots - st.waveLanesFilled,
              staged.waveLaneWidth() - 1);
}

TEST(WaveDecoder, RunChunkGroupMatchesPerChunkOutcomes)
{
    // The campaign's staged group job must count exactly what running
    // each chunk alone counts, and reading chunks through the group
    // must leave the sampler's totals unchanged.
    const auto dem = surface13Dem(0.015);
    const BpOptions bp;

    std::vector<ChunkPlan> plans(4);
    for (size_t k = 0; k < plans.size(); ++k) {
        plans[k].index = k;
        plans[k].shots = 40 + 8 * k;
        plans[k].seed = chunkSeed(0xfeed, k);
    }

    size_t refShots = 0;
    size_t refFailures = 0;
    {
        BpOsdDecoder decoder(dem, bp);
        std::vector<ShotBatch> batches;
        for (const ChunkPlan& plan : plans) {
            const ChunkOutcome o =
                runChunkGroup(dem, &plan, 1, decoder, batches);
            refShots += o.shots;
            refFailures += o.failures;
        }
        // A group of one joins no pool.
        EXPECT_EQ(decoder.stats().stagedChunks, 0u);
    }

    BpOsdDecoder decoder(dem, bp);
    std::vector<ShotBatch> batches;
    const ChunkOutcome grouped = runChunkGroup(
        dem, plans.data(), plans.size(), decoder, batches);
    EXPECT_EQ(grouped.shots, refShots);
    EXPECT_EQ(grouped.failures, refFailures);
    EXPECT_EQ(decoder.stats().stagedChunks, plans.size() - 1);
}

} // namespace
} // namespace cyclone
