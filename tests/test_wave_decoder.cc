/**
 * @file
 * Tests for the lane-parallel BP wave kernel: bit-exactness against
 * the scalar decoder (convergence, iteration counts, posteriors and
 * hard decisions, per lane), ragged lane groups, early convergence,
 * max-iteration non-convergence, and the batched decode pipeline at
 * every supported lane width — including its interplay with the
 * zero-syndrome fast path and the duplicate-syndrome memo.
 */

#include <gtest/gtest.h>

#include <cstdlib>
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
#include "qec/classical_code.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

/**
 * Skip kernel-driving tests on CPUs that cannot run the wave kernels
 * (x86-64 builds compile them with target("avx2")); the product path
 * falls back to the scalar core there, which test_shot_batch.cc
 * covers.
 */
#define SKIP_WITHOUT_WAVE_SUPPORT()                                    \
    do {                                                               \
        if (!BpWaveDecoder::runtimeSupported())                        \
            GTEST_SKIP() << "wave kernels unsupported on this CPU";    \
    } while (0)

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
 * Decode `syndromes` in lane groups through a BpWaveDecoder and
 * require every lane to reproduce the scalar decoder bit-for-bit:
 * convergence flag, iteration count, every posterior float and every
 * hard-decision bit.
 */
void
expectWaveMatchesScalar(const DetectorErrorModel& dem, BpOptions options,
                        const std::vector<BitVec>& syndromes,
                        const char* label,
                        const DecoderBackend* backend = nullptr)
{
    auto graph = std::make_shared<const BpGraph>(dem);
    BpDecoder scalar(graph, options);
    auto wavePtr = backend != nullptr
        ? std::make_unique<BpWaveDecoder>(graph, options, *backend)
        : std::make_unique<BpWaveDecoder>(graph, options);
    BpWaveDecoder& wave = *wavePtr;
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

/** Set (or, with nullptr, unset) an env var for one test's scope. */
class EnvGuard
{
  public:
    EnvGuard(const char* name, const char* value) : name_(name)
    {
        const char* prev = std::getenv(name);
        had_ = prev != nullptr;
        if (had_)
            old_ = prev;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

TEST(WaveDecoder, ResolvesLaneWidthsPerBackend)
{
    EnvGuard noOverride(kWaveBackendEnv, nullptr);

    // A request of 1 always means "wave disabled", on every host.
    EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(1), 1u);
    EXPECT_STREQ(selectDecoderBackend(1).backend->name, "scalar");

    // The registry ends with the always-available scalar backend, and
    // every wider rung precedes it.
    const auto& registry = decoderBackendRegistry();
    ASSERT_FALSE(registry.empty());
    EXPECT_STREQ(registry.back()->name, "scalar");
    EXPECT_EQ(registry.back()->kernels, nullptr);
    EXPECT_TRUE(registry.back()->supported());

    // resolveLaneWidth returns the widest rung at or below the
    // request that some supported backend serves; requests below the
    // narrowest kernel clamp up to it.
    for (size_t req : {size_t{0}, size_t{2}, size_t{4}, size_t{7},
                       size_t{8}, size_t{15}, size_t{16}, size_t{64}}) {
        const DecoderBackendChoice choice = selectDecoderBackend(req);
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(req), choice.lanes);
        if (choice.lanes > 1) {
            EXPECT_EQ(choice.lanes,
                      backendLaneWidth(*choice.backend, req));
            if (req >= 4)
                EXPECT_LE(choice.lanes, req);
        }
    }
    EXPECT_LE(BpWaveDecoder::resolveLaneWidth(4),
              BpWaveDecoder::resolveLaneWidth(8));
    EXPECT_LE(BpWaveDecoder::resolveLaneWidth(8),
              BpWaveDecoder::resolveLaneWidth(16));
    // An explicit oversize request rounds down to the widest width
    // any rung serves; auto (0) takes the dispatched rung's preferred
    // width, which may be narrower (the generic rung prefers 8 but
    // serves 16).
    EXPECT_GE(BpWaveDecoder::resolveLaneWidth(64),
              BpWaveDecoder::resolveLaneWidth(0));

    const DecoderBackend* avx512 = findDecoderBackend("avx512");
    const DecoderBackend* avx2 = findDecoderBackend("avx2");
    const DecoderBackend* generic = findDecoderBackend("generic");
    if (generic != nullptr) {
        // Non-x86 build: the generic rung serves every width.
        EXPECT_EQ(backendLaneWidth(*generic, 0), 8u);
        EXPECT_EQ(backendLaneWidth(*generic, 16), 16u);
        EXPECT_EQ(backendLaneWidth(*generic, 4), 4u);
    }
    if (avx2 != nullptr && avx2->supported()) {
        // The AVX2 rung serves L=4 and L=8 but never L=16.
        EXPECT_EQ(backendLaneWidth(*avx2, 4), 4u);
        EXPECT_EQ(backendLaneWidth(*avx2, 0), 8u);
        EXPECT_EQ(backendLaneWidth(*avx2, 16), 8u);
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(8), 8u);
        EXPECT_STREQ(selectDecoderBackend(8).backend->name, "avx2");
    }
    if (avx512 != nullptr && avx512->supported()) {
        // The AVX-512 rung serves exactly L=16 (one zmm per variable);
        // narrower requests fall through to the AVX2 rung instead of
        // running 16 generic-vector lanes.
        EXPECT_EQ(backendLaneWidth(*avx512, 16), 16u);
        EXPECT_EQ(backendLaneWidth(*avx512, 8), 0u);
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(0), 16u);
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(16), 16u);
        EXPECT_STREQ(selectDecoderBackend(16).backend->name, "avx512");
    } else if (avx2 != nullptr && avx2->supported()) {
        // An AVX2-only host resolves a 16-lane request to 8.
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(16), 8u);
    } else if (avx2 != nullptr) {
        // Pre-AVX2 x86 host: only the scalar rung runs.
        EXPECT_FALSE(BpWaveDecoder::runtimeSupported());
        EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(0), 1u);
        EXPECT_STREQ(selectDecoderBackend(0).backend->name, "scalar");
    }
}

TEST(WaveDecoder, EnvOverrideForcesDispatch)
{
    // Every supported backend can be forced by name through
    // CYCLONE_WAVE_BACKEND, and bogus or impossible overrides fall
    // back to auto dispatch instead of stranding the decode.
    EnvGuard autoGuard(kWaveBackendEnv, nullptr);
    const DecoderBackendChoice autoChoice = selectDecoderBackend(0);

    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (!b->supported())
            continue;
        EnvGuard guard(kWaveBackendEnv, b->name);
        const DecoderBackendChoice forced = selectDecoderBackend(0);
        EXPECT_STREQ(forced.backend->name, b->name) << b->name;
        if (b->kernels == nullptr)
            EXPECT_EQ(forced.lanes, 1u);
        else
            EXPECT_EQ(forced.lanes, backendLaneWidth(*b, 0));
    }
    {
        EnvGuard guard(kWaveBackendEnv, "no-such-backend");
        const DecoderBackendChoice choice = selectDecoderBackend(0);
        EXPECT_STREQ(choice.backend->name, autoChoice.backend->name);
        EXPECT_EQ(choice.lanes, autoChoice.lanes);
    }
    {
        EnvGuard guard(kWaveBackendEnv, "auto");
        const DecoderBackendChoice choice = selectDecoderBackend(0);
        EXPECT_STREQ(choice.backend->name, autoChoice.backend->name);
        EXPECT_EQ(choice.lanes, autoChoice.lanes);
    }
    const DecoderBackend* avx512 = findDecoderBackend("avx512");
    const DecoderBackend* avx2 = findDecoderBackend("avx2");
    if (avx512 != nullptr && avx512->supported() && avx2 != nullptr) {
        // Forcing avx512 with a width it cannot serve falls back to
        // auto dispatch (which lands on the avx2 rung for L=8).
        EnvGuard guard(kWaveBackendEnv, "avx512");
        const DecoderBackendChoice choice = selectDecoderBackend(8);
        EXPECT_STREQ(choice.backend->name, "avx2");
        EXPECT_EQ(choice.lanes, 8u);
    }
}

TEST(WaveDecoder, ForcedScalarDisablesWavePath)
{
    EnvGuard guard(kWaveBackendEnv, "scalar");
    EXPECT_FALSE(BpWaveDecoder::runtimeSupported());
    EXPECT_EQ(BpWaveDecoder::resolveLaneWidth(0), 1u);

    // A decoder constructed under the override uses the scalar batch
    // core — identical predictions, no wave groups.
    const auto dem = surface13Dem(0.01);
    Rng rng(11);
    ShotBatch batch;
    sampleDemBatch(dem, 96, rng, batch);
    BpOsdDecoder decoder(dem, BpOptions{});
    EXPECT_EQ(decoder.waveLaneWidth(), 1u);
    EXPECT_STREQ(decoder.backendName(), "scalar");
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    EXPECT_EQ(decoder.stats().waveGroups, 0u);
    EXPECT_EQ(decoder.stats().backend, "scalar");
}

/** expectWaveMatchesScalar on every supported kernel backend, at every
 *  lane width it serves. */
void
expectEveryBackendMatchesScalar(const DetectorErrorModel& dem,
                                const std::vector<BitVec>& syndromes,
                                BpOptions::Variant variant,
                                const char* tag)
{
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (b->kernels == nullptr || !b->supported())
            continue;
        for (size_t lanes : {size_t{4}, size_t{8}, size_t{16}}) {
            if (b->kernels(lanes) == nullptr)
                continue;
            BpOptions options;
            options.variant = variant;
            options.waveLanes = lanes;
            const std::string label = std::string(tag) + " " + b->name +
                "-L" + std::to_string(lanes);
            expectWaveMatchesScalar(dem, options, syndromes,
                                    label.c_str(), b);
        }
    }
}

TEST(WaveDecoder, BackendMatrixBitExactAgainstScalar)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    // Every supported kernel backend, at every lane width it serves,
    // must reproduce the scalar decoder bit-for-bit under both BP
    // variants. On an AVX-512 host this covers avx2 L=4/8 and avx512
    // L=16 in one run; narrower hosts cover what they can.
    const auto dem = surface13Dem(0.01);
    const auto syndromes = sampledSyndromes(dem, 48, 0xbead);
    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum})
        expectEveryBackendMatchesScalar(dem, syndromes, variant,
                                        "surface13");

    // A zero tanh on a check next to saturated rows: a p = 0.5
    // mechanism has a prior of exactly 0, so its first incoming
    // message is 0 and its tanh falls below 1e-12, while a p = 1e-9
    // mechanism's prior (~20.7) saturates its rows from the first
    // pass. The product-sum pass shares one message among a check's
    // saturated rows; here it must be the zeroed one.
    auto chain = repetitionDem(24, 1e-9);
    for (size_t i = 0; i < chain.mechanisms.size(); i += 3)
        chain.mechanisms[i].probability = 0.5;
    expectEveryBackendMatchesScalar(chain,
                                    sampledSyndromes(chain, 48, 0x2e70),
                                    BpOptions::Variant::ProductSum,
                                    "zero-tanh chain");
}

TEST(WaveDecoder, BitExactAgainstScalarAcrossLaneWidthsAndVariants)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    const auto dem = surface13Dem(0.01);
    const auto syndromes = sampledSyndromes(dem, 70, 0xabc);
    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum}) {
        for (size_t lanes : {4u, 8u, 16u}) {
            BpOptions options;
            options.variant = variant;
            options.waveLanes = lanes;
            expectWaveMatchesScalar(
                dem, options, syndromes,
                variant == BpOptions::Variant::MinSum ? "min-sum"
                                                      : "product-sum");
        }
    }
}

TEST(WaveDecoder, RaggedGroupsMatchScalarAtEveryCount)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    // Every partial lane count from 1 to L-1 must behave exactly like
    // a full group: idle lanes are frozen from the start and never
    // perturb real ones.
    const auto dem = surface13Dem(0.012);
    const auto syndromes = sampledSyndromes(dem, 15, 0x7a9);
    ASSERT_EQ(syndromes.size(), 15u);
    BpOptions options;
    options.waveLanes = 16;
    expectWaveMatchesScalar(dem, options, syndromes, "ragged-15");

    // And a count of 1: the degenerate single-lane wave.
    std::vector<BitVec> one(syndromes.begin(), syndromes.begin() + 1);
    expectWaveMatchesScalar(dem, options, one, "ragged-1");
}

TEST(WaveDecoder, AllLanesConvergeEarlyFreezeIsExact)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
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
    BpOptions options;
    options.waveLanes = 8;
    expectWaveMatchesScalar(dem, options, syndromes, "single-faults");

    auto graph = std::make_shared<const BpGraph>(dem);
    BpWaveDecoder wave(graph, options);
    const BitVec* lanes[8];
    for (size_t i = 0; i < 8; ++i)
        lanes[i] = &syndromes[i + 1];
    wave.decodeWave(lanes, 8);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(wave.laneConverged(i)) << "lane " << i;
        EXPECT_LT(wave.laneIterations(i), options.maxIterations)
            << "lane " << i;
    }
}

TEST(WaveDecoder, MaxIterationNonConvergenceMatchesScalar)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    // A starved iteration budget forces the non-convergence epilogue
    // (final posterior pass + last-chance verification) on most lanes.
    const auto dem = surface13Dem(0.02);
    const auto syndromes = sampledSyndromes(dem, 40, 0x90d);
    for (size_t max_iters : {0u, 1u, 3u}) {
        BpOptions options;
        options.maxIterations = max_iters;
        options.waveLanes = 8;
        expectWaveMatchesScalar(dem, options, syndromes, "starved");
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

TEST(WaveDecoder, DecodeBatchBitIdenticalAcrossLaneWidths)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    // The full batched pipeline (fast path + memo + wave kernel +
    // OSD fallback) must produce identical predictions AND identical
    // aggregate statistics at every lane width, including the
    // wave-disabled width 1.
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

        for (size_t lanes : {1u, 4u, 8u, 16u}) {
            bp.waveLanes = lanes;
            BpOsdDecoder decoder(dem, bp);
            // Dispatch resolves the request per host (an AVX2-only
            // host resolves 16 to 8; this must track it exactly).
            EXPECT_EQ(decoder.waveLaneWidth(),
                      BpWaveDecoder::resolveLaneWidth(lanes));
            EXPECT_STREQ(decoder.backendName(),
                         selectDecoderBackend(lanes).backend->name);
            std::vector<uint64_t> got;
            decoder.decodeBatch(batch, got);
            ASSERT_EQ(got.size(), shots);
            for (size_t s = 0; s < shots; ++s)
                ASSERT_EQ(got[s], expected[s])
                    << "lanes=" << lanes << " s=" << s;

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
            if (lanes == 1) {
                EXPECT_EQ(st.waveGroups, 0u);
                EXPECT_EQ(st.waveLanesFilled, 0u);
            } else {
                EXPECT_EQ(st.waveLanesFilled, distinct);
                EXPECT_EQ(st.waveLaneSlots, st.waveGroups * lanes);
                EXPECT_GE(st.waveLaneSlots, st.waveLanesFilled);
                EXPECT_GT(st.waveLaneOccupancy(), 0.0);
                EXPECT_LE(st.waveLaneOccupancy(), 1.0);
            }
        }
    }
}

TEST(WaveDecoder, DescendingDetectorListsUseExactGatherFallback)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
    // Mechanisms listing their detectors in descending order defeat
    // the scatter form of the wave posterior pass (the streaming
    // order would no longer match the scalar gather order); the graph
    // must flag it and the wave decoder must stay bit-exact through
    // the gather fallback.
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
    auto graph = std::make_shared<const BpGraph>(dem);
    EXPECT_FALSE(graph->varEdgesAscendByCheck);
    EXPECT_TRUE(
        std::make_shared<const BpGraph>(repetitionDem(5, 0.1))
            ->varEdgesAscendByCheck);

    const auto syndromes = sampledSyndromes(dem, 40, 0x51);
    BpOptions options;
    options.waveLanes = 8;
    expectWaveMatchesScalar(dem, options, syndromes, "descending");
}

TEST(WaveDecoder, MemoInterplayReplaysWaveOutcomes)
{
    SKIP_WITHOUT_WAVE_SUPPORT();
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

    BpOptions bp;
    bp.waveLanes = 4;
    BpOsdDecoder decoder(dem, bp);
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
    BpOsdDecoder fresh(dem, bp);
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
    // move. Runs on every host — the scalar fallback stages too.
    const auto dem = surface13Dem(0.012);
    const size_t kChunks = 5;
    const size_t kShots = 48; // Small: ragged per-chunk tail groups.

    std::vector<ShotBatch> batches(kChunks);
    for (size_t k = 0; k < kChunks; ++k) {
        Rng rng(0x1000 + k);
        sampleDemBatch(dem, kShots, rng, batches[k]);
    }

    BpOptions bp;
    bp.waveLanes = 16;

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
    if (st.waveLaneSlots != 0) {
        EXPECT_LE(st.waveGroups, sum.waveGroups);
        const size_t distinct =
            st.decodes - st.trivialShots - st.memoHits;
        EXPECT_EQ(st.waveLanesFilled, distinct);
        // Full pool, one ragged tail group at most.
        EXPECT_LE(st.waveLaneSlots - st.waveLanesFilled,
                  staged.waveLaneWidth() - 1);
    }
}

TEST(WaveDecoder, RunChunkGroupMatchesPerChunkOutcomes)
{
    // The campaign's staged group job must count exactly what running
    // each chunk alone counts, and reading chunks through the group
    // must leave the sampler's totals unchanged.
    const auto dem = surface13Dem(0.015);
    BpOptions bp;
    bp.waveLanes = 8;

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
        ShotBatch batch;
        std::vector<uint64_t> predicted;
        for (const ChunkPlan& plan : plans) {
            const ChunkOutcome o =
                runChunk(dem, plan, decoder, batch, predicted);
            refShots += o.shots;
            refFailures += o.failures;
        }
    }

    BpOsdDecoder decoder(dem, bp);
    std::vector<ShotBatch> batches;
    const ChunkOutcome grouped = runChunkGroup(
        dem, plans.data(), plans.size(), decoder, batches);
    EXPECT_EQ(grouped.shots, refShots);
    EXPECT_EQ(grouped.failures, refFailures);
    EXPECT_EQ(decoder.stats().stagedChunks, plans.size() - 1);

    // Degenerate group of one behaves exactly like runChunk.
    BpOsdDecoder single(dem, bp);
    std::vector<ShotBatch> oneBatch;
    const ChunkOutcome lone =
        runChunkGroup(dem, plans.data(), 1, single, oneBatch);
    BpOsdDecoder refDecoder(dem, bp);
    ShotBatch refBatch;
    std::vector<uint64_t> refPredicted;
    const ChunkOutcome ref =
        runChunk(dem, plans[0], refDecoder, refBatch, refPredicted);
    EXPECT_EQ(lone.shots, ref.shots);
    EXPECT_EQ(lone.failures, ref.failures);
    EXPECT_EQ(single.stats().stagedChunks, 0u);
}

} // namespace
} // namespace cyclone
