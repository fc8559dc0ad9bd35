/**
 * @file
 * Tests for the packed shot pipeline: the shot-major ShotBatch, the
 * packed sampler, and batch-vs-scalar decode equivalence (the
 * determinism contract of the batched pipeline).
 */

#include <gtest/gtest.h>

#include "campaign/adaptive_sampler.h"
#include "circuit/memory_circuit.h"
#include "common/rng.h"
#include "decoder/bposd_decoder.h"
#include "dem/dem_builder.h"
#include "dem/dem_sampler.h"
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

TEST(ShotBatch, RowLayout)
{
    // Row s is shot s's syndrome, laid out as a BitVec's words.
    ShotBatch batch;
    batch.reset(70, 3);
    ASSERT_EQ(batch.syndromeWords(), 2u);
    ASSERT_EQ(batch.words.size(), 6u);
    batch.flipDetector(2, 69);
    batch.flipDetector(0, 3);
    const std::vector<uint64_t> expect = {
        uint64_t(1) << 3, 0, 0, 0, 0, uint64_t(1) << 5};
    EXPECT_EQ(batch.words, expect);
    EXPECT_EQ(batch.row(2), batch.words.data() + 4);

    const BitVec syndrome = batch.syndromeOf(2);
    EXPECT_EQ(syndrome.size(), 70u);
    EXPECT_TRUE(syndrome.get(69));
    EXPECT_EQ(syndrome.popcount(), 1u);

    // reset() zeroes every word while reusing storage.
    batch.reset(70, 3);
    EXPECT_EQ(batch.words, std::vector<uint64_t>(6, 0));
}

/** Sample `shots` shots from one seed into `batch` and through the
 *  scalar sampler: every shot must match, and every row bit past
 *  numDetectors stay zero. */
void
expectPackedMatchesScalar(const DetectorErrorModel& dem, size_t shots,
                          ShotBatch& batch)
{
    Rng scalar_rng(0x5eed);
    Rng batch_rng(0x5eed);
    const DemShots scalar = sampleDem(dem, shots, scalar_rng);
    sampleDemBatch(dem, shots, batch_rng, batch);

    ASSERT_EQ(batch.numShots, shots);
    ASSERT_EQ(batch.numDetectors, dem.numDetectors);
    const size_t row_words = batch.syndromeWords();
    ASSERT_EQ(batch.words.size(), shots * row_words);
    const size_t tail = dem.numDetectors & 63;
    for (size_t s = 0; s < shots; ++s) {
        ASSERT_EQ(batch.observables[s], scalar.observables[s])
            << "detectors=" << dem.numDetectors << " shots=" << shots
            << " s=" << s;
        ASSERT_EQ(batch.syndromeOf(s), scalar.syndromes[s])
            << "detectors=" << dem.numDetectors << " shots=" << shots
            << " s=" << s;
        if (tail != 0) {
            ASSERT_EQ(batch.row(s)[row_words - 1] >> tail, 0u)
                << "detectors=" << dem.numDetectors << " s=" << s;
        }
    }
}

TEST(ShotBatch, PackedSamplerMatchesScalarSampler)
{
    ShotBatch batch;
    const auto dem = surface13Dem(0.01);
    for (size_t shots : {1u, 63u, 64u, 65u, 130u, 256u})
        expectPackedMatchesScalar(dem, shots, batch);

    // 0, 1, 63, 64, 65 and 130 detectors: rows of zero to three
    // words, on and around word boundaries.
    for (size_t n : {1u, 2u, 64u, 65u, 66u, 131u}) {
        const auto chain = repetitionDem(n, 0.1);
        expectPackedMatchesScalar(chain, 100, batch);
        if (chain.numDetectors == 0)
            continue;
        // The sample reaches the last detector, so each row's top
        // word is exercised.
        bool last_fired = false;
        for (size_t s = 0; s < batch.numShots; ++s)
            last_fired |= batch.syndromeOf(s).get(chain.numDetectors - 1);
        EXPECT_TRUE(last_fired) << "detectors=" << chain.numDetectors;
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

TEST(DecodeBatch, MatchesScalarForBothBpVariants)
{
    const auto dem = surface13Dem(0.008);
    for (const auto variant : {BpOptions::Variant::MinSum,
                               BpOptions::Variant::ProductSum}) {
        BpOptions bp;
        bp.variant = variant;
        for (size_t shots : {1u, 64u, 100u, 200u}) {
            Rng scalar_rng(99);
            Rng batch_rng(99);
            DemShots scalar_shots;
            sampleDemInto(dem, shots, scalar_rng, scalar_shots);
            ShotBatch batch;
            sampleDemBatch(dem, shots, batch_rng, batch);

            BpOsdStats scalar_stats;
            const std::vector<uint64_t> expected = scalarPredictions(
                dem, scalar_shots, bp, &scalar_stats);

            BpOsdDecoder decoder(dem, bp);
            std::vector<uint64_t> got;
            decoder.decodeBatch(batch, got);
            ASSERT_EQ(got.size(), shots);
            for (size_t s = 0; s < shots; ++s)
                ASSERT_EQ(got[s], expected[s])
                    << "variant="
                    << (variant == BpOptions::Variant::MinSum ? "ms"
                                                              : "ps")
                    << " shots=" << shots << " s=" << s;

            // Memo replays re-apply outcome stats, so every counter
            // except memoHits matches the per-shot path exactly.
            const BpOsdStats& batch_stats = decoder.stats();
            EXPECT_EQ(batch_stats.decodes, scalar_stats.decodes);
            EXPECT_EQ(batch_stats.bpConverged,
                      scalar_stats.bpConverged);
            EXPECT_EQ(batch_stats.osdInvocations,
                      scalar_stats.osdInvocations);
            EXPECT_EQ(batch_stats.osdFailures,
                      scalar_stats.osdFailures);
            EXPECT_EQ(batch_stats.trivialShots,
                      scalar_stats.trivialShots);
            EXPECT_EQ(batch_stats.bpIterations,
                      scalar_stats.bpIterations);
            EXPECT_EQ(scalar_stats.memoHits, 0u);
        }
    }
}

TEST(DecodeBatch, MemoDecodesEachDistinctSyndromeOnce)
{
    // Tiny DEM at high p: only 16 possible syndromes, so a 512-shot
    // batch is mostly duplicates.
    const auto dem = repetitionDem(5, 0.2);
    const size_t shots = 512;
    Rng scalar_rng(3);
    Rng batch_rng(3);
    DemShots scalar_shots;
    sampleDemInto(dem, shots, scalar_rng, scalar_shots);
    ShotBatch batch;
    sampleDemBatch(dem, shots, batch_rng, batch);

    const std::vector<uint64_t> expected =
        scalarPredictions(dem, scalar_shots, BpOptions{});

    BpOsdDecoder decoder(dem);
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    for (size_t s = 0; s < shots; ++s)
        ASSERT_EQ(got[s], expected[s]) << "s=" << s;

    const BpOsdStats& stats = decoder.stats();
    EXPECT_EQ(stats.decodes, shots);
    EXPECT_GT(stats.memoHits, shots / 2);
    EXPECT_GT(stats.trivialShots, 0u);
    EXPECT_GT(stats.memoHitRate(), 0.5);
    EXPECT_GT(stats.trivialFraction(), 0.0);

    // A second batch re-seeds the memo (per-chunk scope): replaying
    // the same batch gives the same counts again, not all-hits.
    BpOsdDecoder fresh(dem);
    std::vector<uint64_t> again;
    fresh.decodeBatch(batch, again);
    EXPECT_EQ(fresh.stats().memoHits, stats.memoHits);
}

TEST(DecodeBatch, MemoHitsReplayOsdStatsExactly)
{
    // Regression for the OSD accounting on the memo-replay path:
    // duplicate syndromes must replay osdInvocations AND osdFailures
    // per shot, not once per distinct syndrome. Starving BP forces
    // OSD on every non-trivial shot, the tiny syndrome space forces
    // duplicates, and an untouched detector row makes some syndromes
    // leave the column span so osdFailures is exercised too.
    DetectorErrorModel dem = repetitionDem(5, 0.2);
    ++dem.numDetectors; // detector 4: touched by no mechanism

    BpOptions bp;
    bp.maxIterations = 1;
    const size_t shots = 256;
    Rng rng(41);
    ShotBatch batch;
    batch.reset(dem.numDetectors, shots);
    for (size_t s = 0; s < shots; ++s) {
        for (size_t d = 0; d + 1 < dem.numDetectors; ++d) {
            if (rng.below(3) == 0)
                batch.flipDetector(s, d);
        }
        if (rng.below(4) == 0)
            batch.flipDetector(s, dem.numDetectors - 1); // out of span
    }

    BpOsdDecoder scalar(dem, bp);
    std::vector<uint64_t> expected(shots);
    for (size_t s = 0; s < shots; ++s)
        expected[s] = scalar.decode(batch.syndromeOf(s));
    const BpOsdStats& want = scalar.stats();
    ASSERT_GT(want.osdInvocations, 0u);
    ASSERT_GT(want.osdFailures, 0u);

    BpOsdDecoder decoder(dem, bp);
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    for (size_t s = 0; s < shots; ++s)
        ASSERT_EQ(got[s], expected[s]) << "s=" << s;

    const BpOsdStats& stats = decoder.stats();
    ASSERT_GT(stats.memoHits, 0u);
    EXPECT_EQ(stats.decodes, want.decodes);
    EXPECT_EQ(stats.bpConverged, want.bpConverged);
    EXPECT_EQ(stats.osdInvocations, want.osdInvocations);
    EXPECT_EQ(stats.osdFailures, want.osdFailures);
    EXPECT_EQ(stats.trivialShots, want.trivialShots);
    EXPECT_EQ(stats.bpIterations, want.bpIterations);
}

TEST(DecodeBatch, ZeroDetectorDemDecodesToZero)
{
    // Mechanisms that flip observables but no detectors: undetectable
    // by construction, every syndrome is the (empty) zero syndrome.
    DetectorErrorModel dem;
    dem.numDetectors = 0;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.3, {}, 1});
    dem.mechanisms.push_back({0.1, {}, 1});

    const size_t shots = 100;
    Rng rng(17);
    ShotBatch batch;
    sampleDemBatch(dem, shots, rng, batch);

    BpOsdDecoder decoder(dem);
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    ASSERT_EQ(got.size(), shots);
    for (uint64_t prediction : got)
        EXPECT_EQ(prediction, 0u);
    EXPECT_EQ(decoder.stats().trivialShots, shots);
    EXPECT_EQ(decoder.stats().decodes, shots);
    EXPECT_DOUBLE_EQ(decoder.stats().trivialFraction(), 1.0);
    EXPECT_DOUBLE_EQ(decoder.stats().meanBpIterations(), 0.0);

    // Scalar path agrees on the empty syndrome.
    BpOsdDecoder scalar(dem);
    EXPECT_EQ(scalar.decode(BitVec(0)), 0u);
}

TEST(DecodeBatch, OneChunkGroupMatchesHandRolledScalarChunk)
{
    // The campaign's chunk executor end-to-end on a group of one
    // chunk: packed sample + batched decode must reproduce the scalar
    // pipeline's failure count for the same chunk seed.
    const auto dem = surface13Dem(0.02);
    ChunkPlan plan;
    plan.index = 4;
    plan.shots = 150; // not a multiple of 64
    plan.seed = chunkSeed(0xfeedULL, plan.index);

    Rng rng(plan.seed);
    DemShots scalar_shots;
    sampleDemInto(dem, plan.shots, rng, scalar_shots);
    BpOsdDecoder scalar_decoder(dem);
    size_t scalar_failures = 0;
    for (size_t s = 0; s < plan.shots; ++s) {
        if (scalar_decoder.decode(scalar_shots.syndromes[s]) !=
            scalar_shots.observables[s])
            ++scalar_failures;
    }

    BpOsdDecoder decoder(dem);
    std::vector<ShotBatch> batches;
    const ChunkOutcome outcome =
        runChunkGroup(dem, &plan, 1, decoder, batches);
    EXPECT_EQ(outcome.shots, plan.shots);
    EXPECT_EQ(outcome.failures, scalar_failures);
    EXPECT_EQ(decoder.stats().decodes, plan.shots);
}

} // namespace
} // namespace cyclone
