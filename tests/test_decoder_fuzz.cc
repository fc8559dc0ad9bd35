/**
 * @file
 * Differential fuzz harness for the whole decode stack, plus the OSD
 * edge-case unit tests.
 *
 * The batched pipeline's contract is that every fast path — the
 * scalar-core batch, the lane-parallel wave kernel, and the batched
 * OSD stage — is bit-identical to per-shot decoding. Instead of
 * hand-building a case per feature, the fuzzer generates random small
 * DEMs (varied detector/mechanism counts, ragged degrees, duplicate
 * columns, zero-weight detectors) and random shot sets (error-pattern
 * shots plus adversarial raw syndromes that may leave the DEM column
 * span), then asserts exact prediction and statistics equality across
 * every decode path (scalar-core batch, the wave pipeline on every
 * supported rung, the staged pool) for both BP variants. Wider random
 * DEMs (65-464 detectors) run the batched OSD stage head to head
 * against per-shot OSD at reject quotas from 0 to 60, which is what
 * reaches the aug-free hit-list rebuild and the multi-word dual-basis
 * filter.
 *
 * CI runs a fixed seed set; set CYCLONE_FUZZ_ITERS to a larger count
 * for deeper local runs (each iteration is one random DEM + shot set
 * per BP variant).
 */

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "decoder/bposd_decoder.h"
#include "decoder/decoder_backend.h"
#include "decoder/osd.h"
#include "decoder/stream_decoder.h"
#include "dem/dem.h"
#include "dem/shot_batch.h"

namespace cyclone {
namespace {

/** Set (or, with nullptr, unset) an env var for one scope. */
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

size_t
fuzzIterations()
{
    const char* env = std::getenv("CYCLONE_FUZZ_ITERS");
    if (env != nullptr && env[0] != '\0') {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<size_t>(parsed);
    }
    return 24;
}

/** Random DEM: ragged degrees, duplicate columns, detectors no
 *  mechanism touches, undetectable mechanisms. Small by default; wide
 *  DEMs have 65-464 detectors (more than one word per row of the
 *  dual-basis filter) and 1-5x as many mechanisms. */
DetectorErrorModel
randomDem(Rng& rng, bool wide = false)
{
    DetectorErrorModel dem;
    dem.numDetectors = wide ? 65 + rng.below(400) // 65..464
                            : rng.below(25);      // 0..24, zero included
    dem.numObservables = 1 + rng.below(3);        // 1..3
    const size_t mechs = wide
        ? dem.numDetectors + rng.below(4 * dem.numDetectors + 1)
        : 1 + rng.below(48); // 1..48
    for (size_t m = 0; m < mechs; ++m) {
        DemMechanism mech;
        mech.probability = 0.01 + 0.34 * (rng.below(1000) / 1000.0);
        if (!dem.mechanisms.empty() && rng.below(10) < 3) {
            // Duplicate column: same detectors as an earlier
            // mechanism (possibly different observables), so H is
            // rank-deficient in a way OSD must handle.
            const size_t src = rng.below(dem.mechanisms.size());
            mech.detectors = dem.mechanisms[src].detectors;
        } else if (dem.numDetectors > 0) {
            const size_t degree = rng.below(5); // 0..4, ragged
            for (size_t d = 0; d < degree; ++d) {
                const uint32_t det = static_cast<uint32_t>(
                    rng.below(dem.numDetectors));
                bool seen = false;
                for (uint32_t existing : mech.detectors)
                    seen = seen || existing == det;
                if (!seen)
                    mech.detectors.push_back(det);
            }
        }
        mech.observables = rng.next() &
            ((uint64_t(1) << dem.numObservables) - 1);
        dem.mechanisms.push_back(std::move(mech));
    }
    return dem;
}

/** Random shots: half error patterns (in-span syndromes), half raw
 *  random detector sets that may be outside the DEM column span. */
ShotBatch
randomShots(const DetectorErrorModel& dem, size_t shots, Rng& rng)
{
    ShotBatch batch;
    batch.reset(dem.numDetectors, shots);
    for (size_t s = 0; s < shots; ++s) {
        if (rng.below(2) == 0) {
            const size_t faults = rng.below(5);
            for (size_t f = 0; f < faults; ++f) {
                const DemMechanism& mech =
                    dem.mechanisms[rng.below(dem.mechanisms.size())];
                for (uint32_t d : mech.detectors)
                    batch.flipDetector(s, d);
            }
        } else {
            for (size_t d = 0; d < dem.numDetectors; ++d) {
                if (rng.below(8) == 0)
                    batch.flipDetector(s, d);
            }
        }
    }
    return batch;
}

/** The per-shot outcome counters that memo replay must preserve. */
void
expectReplayedStatsEqual(const BpOsdStats& got, const BpOsdStats& want,
                         const std::string& label)
{
    EXPECT_EQ(got.decodes, want.decodes) << label;
    EXPECT_EQ(got.bpConverged, want.bpConverged) << label;
    EXPECT_EQ(got.osdInvocations, want.osdInvocations) << label;
    EXPECT_EQ(got.osdFailures, want.osdFailures) << label;
    EXPECT_EQ(got.trivialShots, want.trivialShots) << label;
    EXPECT_EQ(got.bpIterations, want.bpIterations) << label;
}

TEST(DecoderFuzz, AllPathsBitExactOnRandomDems)
{
    const size_t iters = fuzzIterations();
    for (size_t iter = 0; iter < iters; ++iter) {
        for (const auto variant : {BpOptions::Variant::MinSum,
                                   BpOptions::Variant::ProductSum}) {
            Rng rng(0xf0220000ULL + iter * 2 +
                    (variant == BpOptions::Variant::MinSum ? 0 : 1));
            const DetectorErrorModel dem = randomDem(rng);
            const size_t shots = 1 + rng.below(180);
            const ShotBatch batch = randomShots(dem, shots, rng);

            BpOptions bp;
            bp.variant = variant;
            // Starve BP often so the OSD stage is exercised hard.
            bp.maxIterations = 1 + rng.below(12);

            const std::string label = "iter=" + std::to_string(iter) +
                " variant=" +
                (variant == BpOptions::Variant::MinSum ? "ms" : "ps") +
                " shots=" + std::to_string(shots) +
                " det=" + std::to_string(dem.numDetectors) +
                " mechs=" + std::to_string(dem.mechanisms.size());

            // Path 1: per-shot scalar decoding (the reference).
            BpOptions scalarBp = bp;
            scalarBp.waveLanes = 1;
            BpOsdDecoder scalar(dem, scalarBp);
            std::vector<uint64_t> expected(shots);
            for (size_t s = 0; s < shots; ++s)
                expected[s] = scalar.decode(batch.syndromeOf(s));
            const BpOsdStats want = scalar.stats();

            struct PathSpec
            {
                const char* name;
                size_t waveLanes;
            };
            const PathSpec paths[] = {
                {"batch", 1},
                {"wave", 0},
            };
            size_t batchMemoHits = 0;
            for (const PathSpec& path : paths) {
                BpOptions pathBp = bp;
                pathBp.waveLanes = path.waveLanes;
                BpOsdDecoder decoder(dem, pathBp);
                std::vector<uint64_t> got;
                decoder.decodeBatch(batch, got);
                ASSERT_EQ(got.size(), shots) << label;
                for (size_t s = 0; s < shots; ++s)
                    ASSERT_EQ(got[s], expected[s])
                        << label << " path=" << path.name
                        << " s=" << s;
                expectReplayedStatsEqual(
                    decoder.stats(), want,
                    label + " path=" + path.name);
                // All batch paths share the same memo grouping.
                if (path.waveLanes == 1)
                    batchMemoHits = decoder.stats().memoHits;
                else
                    EXPECT_EQ(decoder.stats().memoHits, batchMemoHits)
                        << label << " path=" << path.name;
            }

            // Path 4 (x N): every supported SIMD-ladder rung, forced
            // through the dispatch override, full pipeline. The rung
            // must change nothing — not one bit, not one counter.
            for (const DecoderBackend* b : decoderBackendRegistry()) {
                if (b->kernels == nullptr || !b->supported())
                    continue;
                EnvGuard guard(kWaveBackendEnv, b->name);
                BpOptions pathBp = bp;
                pathBp.waveLanes = 0;
                BpOsdDecoder decoder(dem, pathBp);
                ASSERT_STREQ(decoder.backendName(), b->name) << label;
                std::vector<uint64_t> got;
                decoder.decodeBatch(batch, got);
                for (size_t s = 0; s < shots; ++s)
                    ASSERT_EQ(got[s], expected[s])
                        << label << " backend=" << b->name
                        << " s=" << s;
                expectReplayedStatsEqual(
                    decoder.stats(), want,
                    label + " backend=" + b->name);
                EXPECT_EQ(decoder.stats().memoHits, batchMemoHits)
                    << label << " backend=" << b->name;
            }

            // Path 5: the staged pool — the same batch staged twice
            // into one group must replay the exact outcome (and
            // per-shot statistics) onto both copies.
            {
                BpOptions pathBp = bp;
                pathBp.waveLanes = 0;
                BpOsdDecoder staged(dem, pathBp);
                staged.beginStaged();
                staged.stageBatch(batch);
                staged.stageBatch(batch);
                staged.flushStaged();
                for (size_t copy = 0; copy < 2; ++copy) {
                    const size_t base = staged.stagedBatchOffset(copy);
                    for (size_t s = 0; s < shots; ++s)
                        ASSERT_EQ(
                            staged.stagedPredictions()[base + s],
                            expected[s])
                            << label << " staged copy=" << copy
                            << " s=" << s;
                }
                const BpOsdStats& st = staged.stats();
                EXPECT_EQ(st.decodes, want.decodes * 2) << label;
                EXPECT_EQ(st.bpConverged, want.bpConverged * 2)
                    << label;
                EXPECT_EQ(st.osdInvocations, want.osdInvocations * 2)
                    << label;
                EXPECT_EQ(st.osdFailures, want.osdFailures * 2)
                    << label;
                EXPECT_EQ(st.trivialShots, want.trivialShots * 2)
                    << label;
                EXPECT_EQ(st.bpIterations, want.bpIterations * 2)
                    << label;
                EXPECT_EQ(st.stagedChunks, 1u) << label;
            }
        }
    }
}

TEST(DecoderFuzz, StreamedWindowsBitExactOffline)
{
    // The streaming front-end regroups windows across streams and
    // flush boundaries; every committed correction must equal the
    // offline batch decode of the same syndrome, for random DEMs,
    // stream counts, window round counts, ragged totals and both
    // flush policies.
    const size_t iters = fuzzIterations();
    for (size_t iter = 0; iter < iters; ++iter) {
        Rng rng(0x57e3a00ULL + iter);
        const DetectorErrorModel dem = randomDem(rng);
        const size_t shots = 1 + rng.below(300);
        const ShotBatch batch = randomShots(dem, shots, rng);

        BpOptions bp;
        bp.maxIterations = 1 + rng.below(12);
        BpOsdDecoder reference(dem, bp);
        std::vector<uint64_t> expected;
        reference.decodeBatch(batch, expected);

        const size_t S = 1 + rng.below(16);
        const size_t R = 1 + rng.below(5);
        const bool deadline = rng.below(2) == 0;
        const std::string label = "iter=" + std::to_string(iter) +
            " shots=" + std::to_string(shots) +
            " S=" + std::to_string(S) + " R=" + std::to_string(R) +
            (deadline ? " deadline" : " full-wave");

        double clockUs = 0.0;
        BpOsdDecoder decoder(dem, bp);
        StreamDecoderOptions options;
        options.streams = S;
        options.roundsPerWindow = R;
        options.capacityChunks = 1 + rng.below(3);
        options.policy = deadline ? FlushPolicy::Deadline
                                  : FlushPolicy::FullWave;
        options.deadlineUs = 50.0;
        options.flushAfterUs = deadline ? 5.0 + rng.below(40) : 0.0;
        options.nowUs = [&clockUs] { return clockUs; };
        StreamDecoder stream(decoder, dem.numDetectors, options);

        const size_t windows = (shots + S - 1) / S;
        size_t committedSeen = 0;
        for (size_t w = 0; w < windows; ++w) {
            for (size_t r = 0; r < R; ++r) {
                for (size_t s = 0; s < S; ++s) {
                    const size_t flat = w * S + s;
                    if (flat < shots)
                        stream.pushRound(s, batch.syndromeOf(flat));
                }
                clockUs += 1.0 + rng.below(20);
                stream.poll();
            }
        }
        stream.finish();

        ASSERT_EQ(stream.committed().size(), shots) << label;
        std::vector<bool> seen(shots, false);
        for (const CommittedWindow& c : stream.committed()) {
            const size_t flat = c.windowIndex * S + c.stream;
            ASSERT_LT(flat, shots) << label;
            ASSERT_FALSE(seen[flat]) << label << " flat=" << flat;
            seen[flat] = true;
            ASSERT_EQ(c.prediction, expected[flat])
                << label << " flat=" << flat;
            ++committedSeen;
        }
        EXPECT_EQ(committedSeen, shots) << label;
        EXPECT_EQ(stream.stats().windows, shots) << label;
        EXPECT_EQ(stream.stats().roundsPushed, shots * R) << label;
    }
}

/**
 * solveBatch head-to-head against per-shot decode() at reject quota
 * `order`, on the starved-BP posteriors of up to 90 random shots (so
 * above the 64-per-word RHS chunk size); `stats` gets the batch
 * counters.
 */
void
expectSolveBatchMatchesScalar(const DetectorErrorModel& dem,
                              size_t order, Rng& rng,
                              const std::string& label,
                              OsdBatchStats& stats)
{
    const size_t shots = 1 + rng.below(90);
    const ShotBatch batch = randomShots(dem, shots, rng);

    BpOptions bp;
    bp.maxIterations = 1 + rng.below(6);
    BpDecoder bpDecoder(dem, bp);

    std::vector<BitVec> syndromes;
    std::vector<std::vector<float>> posteriors;
    for (size_t s = 0; s < shots; ++s) {
        const BitVec syndrome = batch.syndromeOf(s);
        bpDecoder.decode(syndrome);
        syndromes.push_back(syndrome);
        posteriors.push_back(bpDecoder.posteriorLlr());
    }

    std::vector<OsdShotRequest> requests(shots);
    for (size_t s = 0; s < shots; ++s) {
        requests[s].syndrome = &syndromes[s];
        requests[s].posteriorLlr = posteriors[s].data();
    }
    OsdDecoder batchOsd(dem, order);
    OsdBatchResult result;
    batchOsd.solveBatch(requests.data(), shots, result);

    OsdDecoder scalarOsd(dem, order);
    std::vector<uint8_t> errors;
    for (size_t s = 0; s < shots; ++s) {
        const bool ok =
            scalarOsd.decode(syndromes[s], posteriors[s], errors);
        ASSERT_EQ(result.ok[s] != 0, ok) << label << " s=" << s;
        if (!ok)
            continue;
        std::vector<uint8_t> batchErrors(dem.mechanisms.size(), 0);
        for (size_t f = result.flipOffsets[s];
             f < result.flipOffsets[s + 1]; ++f)
            batchErrors[result.flips[f]] = 1;
        ASSERT_EQ(batchErrors, errors) << label << " s=" << s;
    }
    stats = result.stats;
}

TEST(DecoderFuzz, DirectSolveBatchMatchesScalarOsd)
{
    // Small DEMs at the default quota never fill the 60-reject quota,
    // so they never leave the aug-tracking reduction. Each iteration
    // also runs a wide DEM at a small quota, which reaches the
    // hit-list rebuild and switches the dual-basis filter on with
    // more than 64 rows uncovered: at quota 0 from the first
    // candidate, at 60 only late in the elimination.
    static const size_t kOrders[] = {0, 1, 2, 4, 8, 60};
    const size_t iters = fuzzIterations();
    size_t wideDualBases = 0;
    for (size_t iter = 0; iter < iters; ++iter) {
        OsdBatchStats stats;
        {
            Rng rng(0xd07b47c8ULL + iter);
            const DetectorErrorModel dem = randomDem(rng);
            ASSERT_NO_FATAL_FAILURE(expectSolveBatchMatchesScalar(
                dem, 60, rng, "iter=" + std::to_string(iter), stats));
        }
        Rng rng(0x51de0000ULL + iter);
        const DetectorErrorModel dem = randomDem(rng, true);
        const size_t order = kOrders[iter % std::size(kOrders)];
        const std::string label = "wide iter=" + std::to_string(iter) +
            " order=" + std::to_string(order) +
            " det=" + std::to_string(dem.numDetectors) +
            " mechs=" + std::to_string(dem.mechanisms.size());
        ASSERT_NO_FATAL_FAILURE(
            expectSolveBatchMatchesScalar(dem, order, rng, label, stats));
        wideDualBases += stats.wideDualBases;
    }
    EXPECT_GT(wideDualBases, 0u);
}

// --------------------------------------------------------------------
// OSD edge cases.
// --------------------------------------------------------------------

/** Repetition-code DEM (chain of detectors, full-rank H). */
DetectorErrorModel
chainDem(size_t n, double p)
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

TEST(OsdBatch, AllConvergedGroupNeverInvokesOsd)
{
    // Single-fault syndromes on a chain: BP converges on every shot,
    // so the batched OSD stage must never run.
    const DetectorErrorModel dem = chainDem(8, 0.05);
    ShotBatch batch;
    batch.reset(dem.numDetectors, 40);
    for (size_t s = 0; s < 40; ++s) {
        for (uint32_t d :
             dem.mechanisms[s % dem.mechanisms.size()].detectors)
            batch.flipDetector(s, d);
    }
    BpOsdDecoder decoder(dem);
    std::vector<uint64_t> predicted;
    decoder.decodeBatch(batch, predicted);
    EXPECT_EQ(decoder.stats().bpConverged, decoder.stats().decodes);
    EXPECT_EQ(decoder.stats().osdInvocations, 0u);
    EXPECT_EQ(decoder.stats().osdBatchGroups, 0u);
    EXPECT_EQ(decoder.stats().osdSharedPivots, 0u);
}

TEST(OsdBatch, RankDeficientAndOutOfSpanSyndromes)
{
    // Detector 4 is touched by no mechanism, and two columns repeat:
    // H is rank-deficient and syndromes with bit 4 set sit outside
    // the column span. Batch must agree with scalar on predictions
    // and on the osdFailures accounting.
    DetectorErrorModel dem;
    dem.numDetectors = 5;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.1, {0, 1}, 1});
    dem.mechanisms.push_back({0.1, {1, 2}, 0});
    dem.mechanisms.push_back({0.1, {0, 1}, 0}); // duplicate of [0]
    dem.mechanisms.push_back({0.1, {2, 3}, 1});
    dem.mechanisms.push_back({0.1, {3}, 0});

    BpOptions bp;
    bp.maxIterations = 1; // starve BP so OSD always runs
    const size_t shots = 24;
    ShotBatch batch;
    batch.reset(dem.numDetectors, shots);
    for (size_t s = 0; s < shots; ++s) {
        if (s % 3 == 0)
            batch.flipDetector(s, 4); // out of span
        batch.flipDetector(s, s % 4);
        if (s % 2 == 0)
            batch.flipDetector(s, (s + 1) % 4);
    }

    BpOptions scalarBp = bp;
    scalarBp.waveLanes = 1;
    BpOsdDecoder scalar(dem, scalarBp);
    std::vector<uint64_t> expected(shots);
    for (size_t s = 0; s < shots; ++s)
        expected[s] = scalar.decode(batch.syndromeOf(s));
    ASSERT_GT(scalar.stats().osdFailures, 0u);
    ASSERT_GT(scalar.stats().osdInvocations, 0u);

    BpOsdDecoder decoder(dem, bp);
    std::vector<uint64_t> got;
    decoder.decodeBatch(batch, got);
    for (size_t s = 0; s < shots; ++s)
        EXPECT_EQ(got[s], expected[s]) << "s=" << s;
    expectReplayedStatsEqual(decoder.stats(), scalar.stats(),
                             "rank-deficient");
}

TEST(OsdBatch, SingletonGroupDegeneratesToScalar)
{
    const DetectorErrorModel dem = chainDem(10, 0.1);
    BpOptions bp;
    bp.maxIterations = 1;
    BpDecoder bpDecoder(dem, bp);
    BitVec syndrome(dem.numDetectors);
    syndrome.set(2, true);
    syndrome.set(5, true);
    bpDecoder.decode(syndrome);
    const std::vector<float> posterior = bpDecoder.posteriorLlr();

    OsdShotRequest request;
    request.syndrome = &syndrome;
    request.posteriorLlr = posterior.data();
    OsdDecoder batchOsd(dem);
    OsdBatchResult result;
    batchOsd.solveBatch(&request, 1, result);
    EXPECT_EQ(result.stats.groups, 1u);
    EXPECT_EQ(result.stats.groupedShots, 0u);
    EXPECT_EQ(result.stats.sharedPivots, 0u);

    OsdDecoder scalarOsd(dem);
    std::vector<uint8_t> errors;
    ASSERT_TRUE(scalarOsd.decode(syndrome, posterior, errors));
    ASSERT_EQ(result.ok[0], 1u);
    std::vector<uint8_t> batchErrors(dem.mechanisms.size(), 0);
    for (size_t f = result.flipOffsets[0]; f < result.flipOffsets[1];
         ++f)
        batchErrors[result.flips[f]] = 1;
    EXPECT_EQ(batchErrors, errors);
    EXPECT_EQ(batchOsd.discoveredRank(), scalarOsd.discoveredRank());
}

TEST(OsdBatch, SharedOrderingPrefixGroupsAcrossSyndromes)
{
    // Shots with the same posterior but different syndromes share the
    // whole reliability permutation, so one elimination must serve
    // the entire batch — including the >64-shot RHS chunking path.
    const DetectorErrorModel dem = chainDem(12, 0.1);
    const size_t shots = 70;
    std::vector<float> posterior(dem.mechanisms.size());
    for (size_t v = 0; v < posterior.size(); ++v)
        posterior[v] = 0.25f * static_cast<float>((v * 7) % 13) - 1.0f;

    std::vector<BitVec> syndromes;
    for (size_t s = 0; s < shots; ++s) {
        BitVec syndrome(dem.numDetectors);
        syndrome.set(s % dem.numDetectors, true);
        if (s % 2 == 0)
            syndrome.set((s + 3) % dem.numDetectors, true);
        syndromes.push_back(std::move(syndrome));
    }
    std::vector<OsdShotRequest> requests(shots);
    for (size_t s = 0; s < shots; ++s) {
        requests[s].syndrome = &syndromes[s];
        requests[s].posteriorLlr = posterior.data();
    }

    OsdDecoder batchOsd(dem);
    OsdBatchResult result;
    batchOsd.solveBatch(requests.data(), shots, result);
    EXPECT_EQ(result.stats.groups, 1u);
    EXPECT_EQ(result.stats.groupedShots, shots - 1);
    EXPECT_EQ(result.stats.sharedPivots,
              batchOsd.discoveredRank() * (shots - 1));

    OsdDecoder scalarOsd(dem);
    std::vector<uint8_t> errors;
    for (size_t s = 0; s < shots; ++s) {
        ASSERT_TRUE(scalarOsd.decode(syndromes[s], posterior, errors))
            << "s=" << s;
        ASSERT_EQ(result.ok[s], 1u) << "s=" << s;
        std::vector<uint8_t> batchErrors(dem.mechanisms.size(), 0);
        for (size_t f = result.flipOffsets[s];
             f < result.flipOffsets[s + 1]; ++f)
            batchErrors[result.flips[f]] = 1;
        ASSERT_EQ(batchErrors, errors) << "s=" << s;
    }
}

TEST(OsdBatch, ReliabilityTiesAtThePivotBoundary)
{
    // An all-ties posterior makes the reliability order pure index
    // order, putting equal keys on both sides of every pivot/reject
    // decision; and a batch with one differing shot must split into
    // two groups rather than share the wrong elimination.
    const DetectorErrorModel dem = chainDem(9, 0.1);
    std::vector<float> tied(dem.mechanisms.size(), 0.5f);
    std::vector<float> nudged = tied;
    nudged[3] = 0.4999f; // reorders the prefix for the second shot

    BitVec sa(dem.numDetectors);
    sa.set(1, true);
    BitVec sb(dem.numDetectors);
    sb.set(4, true);
    OsdShotRequest requests[2];
    requests[0].syndrome = &sa;
    requests[0].posteriorLlr = tied.data();
    requests[1].syndrome = &sb;
    requests[1].posteriorLlr = nudged.data();

    OsdDecoder batchOsd(dem);
    OsdBatchResult result;
    batchOsd.solveBatch(requests, 2, result);
    EXPECT_EQ(result.stats.groups, 2u);
    // The second leader differs from the first by one key, so its
    // reliability order comes from the incremental re-rank path.
    EXPECT_EQ(result.stats.incrementalSorts, 1u);

    OsdDecoder scalarOsd(dem);
    std::vector<uint8_t> errors;
    const std::vector<float>* posteriors[2] = {&tied, &nudged};
    const BitVec* syndromes[2] = {&sa, &sb};
    for (size_t s = 0; s < 2; ++s) {
        ASSERT_TRUE(scalarOsd.decode(*syndromes[s], *posteriors[s],
                                     errors));
        ASSERT_EQ(result.ok[s], 1u);
        std::vector<uint8_t> batchErrors(dem.mechanisms.size(), 0);
        for (size_t f = result.flipOffsets[s];
             f < result.flipOffsets[s + 1]; ++f)
            batchErrors[result.flips[f]] = 1;
        EXPECT_EQ(batchErrors, errors) << "s=" << s;
    }
}

TEST(OsdBatch, IncrementalReliabilitySortMatchesFreshDecoder)
{
    // A persistent decoder re-ranks only the posteriors whose sort key
    // changed since the previous solve. Every step must produce the
    // exact flips a fresh decoder (full radix sort) produces — across
    // sign flips, signed-zero transitions, and duplicate LLRs — and
    // the incremental counter must fire exactly when the diff path is
    // taken.
    const DetectorErrorModel dem = chainDem(14, 0.1);
    const size_t n = dem.mechanisms.size();
    ASSERT_GE(n, 10u);

    std::vector<float> base(n);
    for (size_t v = 0; v < n; ++v)
        base[v] = 0.25f * static_cast<float>((v * 5) % 7) - 0.5f;
    base[2] = 0.0f;
    base[5] = -0.0f;   // same key as index 2's +0.0: tie broken by index
    base[9] = base[3]; // duplicate LLR

    std::vector<std::vector<float>> steps;
    steps.push_back(base);
    auto p1 = base;
    p1[4] = -p1[4] - 0.125f; // one key moves
    steps.push_back(p1);
    auto p2 = p1;
    p2[5] = 0.0f; // -0.0 -> +0.0: sort key is unchanged
    steps.push_back(p2);
    auto p3 = p2;
    p3[7] = p3[3]; // a third copy of the duplicated LLR
    steps.push_back(p3);
    auto p4 = p3;
    for (size_t v = 0; v < n; ++v)
        p4[v] += 1.0f; // majority change: falls back to a full rebuild
    steps.push_back(p4);

    // full sort, incremental, empty diff, incremental, full rebuild
    const size_t expectIncremental[] = {0, 1, 0, 1, 0};

    BitVec syndrome(dem.numDetectors);
    syndrome.set(3, true);
    syndrome.set(8, true);

    OsdDecoder persistent(dem);
    for (size_t i = 0; i < steps.size(); ++i) {
        OsdShotRequest request;
        request.syndrome = &syndrome;
        request.posteriorLlr = steps[i].data();

        OsdBatchResult got;
        persistent.solveBatch(&request, 1, got);
        EXPECT_EQ(got.stats.incrementalSorts, expectIncremental[i])
            << "step=" << i;

        OsdDecoder fresh(dem);
        OsdBatchResult want;
        fresh.solveBatch(&request, 1, want);
        ASSERT_EQ(got.ok, want.ok) << "step=" << i;
        ASSERT_EQ(got.flipOffsets, want.flipOffsets) << "step=" << i;
        ASSERT_EQ(got.flips, want.flips) << "step=" << i;
        EXPECT_EQ(persistent.discoveredRank(), fresh.discoveredRank())
            << "step=" << i;
    }
}

TEST(OsdBatch, IncrementalSortSurvivesRandomPerturbationSequences)
{
    // Long random walks over a persistent decoder: each step perturbs
    // a random subset of posteriors (including exact ties with other
    // entries and sign flips through zero) and must stay bit-exact
    // with a fresh full sort.
    const DetectorErrorModel dem = chainDem(11, 0.1);
    const size_t n = dem.mechanisms.size();
    Rng rng(0x05eed5u);

    std::vector<float> llr(n);
    for (size_t v = 0; v < n; ++v)
        llr[v] = 0.125f * static_cast<float>(rng.next() % 33) - 2.0f;

    OsdDecoder persistent(dem);
    size_t incrementalSeen = 0;
    const size_t rounds = fuzzIterations();
    for (size_t round = 0; round < rounds; ++round) {
        const size_t touches = rng.next() % (n / 2);
        for (size_t t = 0; t < touches; ++t) {
            const size_t v = rng.next() % n;
            switch (rng.next() % 4) {
            case 0:
                llr[v] = llr[rng.next() % n]; // exact tie
                break;
            case 1:
                llr[v] = -llr[v]; // sign flip (and -0.0 <-> +0.0)
                break;
            case 2:
                llr[v] = 0.125f * static_cast<float>(rng.next() % 33) -
                         2.0f;
                break;
            default:
                break; // rewrite with the identical value
            }
        }
        BitVec syndrome(dem.numDetectors);
        for (size_t d = 0; d < dem.numDetectors; ++d)
            syndrome.set(d, (rng.next() & 1) != 0);

        OsdShotRequest request;
        request.syndrome = &syndrome;
        request.posteriorLlr = llr.data();

        OsdBatchResult got;
        persistent.solveBatch(&request, 1, got);
        incrementalSeen += got.stats.incrementalSorts;

        OsdDecoder fresh(dem);
        OsdBatchResult want;
        fresh.solveBatch(&request, 1, want);
        ASSERT_EQ(got.ok, want.ok) << "round=" << round;
        ASSERT_EQ(got.flipOffsets, want.flipOffsets)
            << "round=" << round;
        ASSERT_EQ(got.flips, want.flips) << "round=" << round;
    }
    EXPECT_GT(incrementalSeen, 0u);
}

} // namespace
} // namespace cyclone
