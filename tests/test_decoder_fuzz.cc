/**
 * @file
 * Differential fuzz harness for the whole decode stack, plus the OSD
 * edge-case unit tests.
 *
 * The batched pipeline's contract is that every fast path — the
 * lane-parallel wave kernel on each rung and the fast OSD path — is
 * bit-identical to per-shot decoding. Instead of hand-building a
 * case per feature, the fuzzer generates random small DEMs (varied
 * detector/mechanism counts, ragged degrees, duplicate columns,
 * zero-weight detectors) and random shot sets (error-pattern shots
 * plus adversarial raw syndromes that may leave the DEM column span),
 * then asserts exact prediction and statistics equality between the
 * per-shot oracle (BpOsdDecoder::decode) and the pipeline on every
 * supported rung, plus the staged pool fed by batches and by single
 * syndromes, for both BP variants. Wider
 * random DEMs (65-464 detectors) run OsdDecoder::solve head to head
 * against the scalar OsdDecoder::decode at reject quotas from 0 to
 * 60, which is what reaches the aug-free hit-list rebuild and the
 * multi-word dual-basis filter.
 *
 * CI runs a fixed seed set; set CYCLONE_FUZZ_ITERS to a larger count
 * for deeper local runs (each iteration is one random DEM + shot set
 * per BP variant).
 */

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
#include "env_guard.h"
#include "fuzz_iterations.h"

namespace cyclone {
namespace {

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

            // The per-shot oracle: the scalar core, one shot at a time.
            BpOsdDecoder scalar(dem, bp);
            std::vector<uint64_t> expected(shots);
            for (size_t s = 0; s < shots; ++s)
                expected[s] = scalar.decode(batch.syndromeOf(s));
            const BpOsdStats want = scalar.stats();

            // The full pipeline on every supported SIMD-ladder rung,
            // forced through the dispatch override. The rung must
            // change nothing — not one bit, not one counter — and
            // every rung groups the memo alike.
            std::vector<size_t> memoHits;
            for (const DecoderBackend* b : decoderBackendRegistry()) {
                if (!b->supported())
                    continue;
                EnvGuard guard(kWaveBackendEnv, b->name);
                BpOsdDecoder decoder(dem, bp);
                ASSERT_STREQ(decoder.backendName(), b->name) << label;
                std::vector<uint64_t> got;
                decoder.decodeBatch(batch, got);
                ASSERT_EQ(got.size(), shots) << label;
                for (size_t s = 0; s < shots; ++s)
                    ASSERT_EQ(got[s], expected[s])
                        << label << " backend=" << b->name
                        << " s=" << s;
                expectReplayedStatsEqual(
                    decoder.stats(), want,
                    label + " backend=" + b->name);
                memoHits.push_back(decoder.stats().memoHits);
                EXPECT_EQ(memoHits.back(), memoHits.front())
                    << label << " backend=" << b->name;
            }

            // The staged pool: the same batch staged twice into one
            // group must replay the exact outcome (and per-shot
            // statistics) onto both copies.
            {
                BpOsdDecoder staged(dem, bp);
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

            // Every shot staged on its own, as the streaming front-end
            // stages ready windows: the same group decodeBatch forms,
            // so the same predictions and every deterministic counter.
            {
                BpOsdDecoder batched(dem, bp);
                std::vector<uint64_t> got;
                batched.decodeBatch(batch, got);
                BpOsdDecoder single(dem, bp);
                single.beginStaged();
                for (size_t s = 0; s < shots; ++s)
                    single.stageSyndrome(batch.syndromeOf(s));
                single.flushStaged();
                EXPECT_EQ(single.stagedPredictions(), got) << label;
                EXPECT_EQ(deterministicMismatch(single.stats(),
                                                batched.stats()),
                          "")
                    << label;
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
 * solve() head-to-head against decode() at reject quota `order`, on
 * the starved-BP posteriors of up to 90 random shots, each decoder
 * kept across the shots; `wideDualBases` gets the solve decoder's
 * counter.
 */
void
expectSolveMatchesScalar(const DetectorErrorModel& dem, size_t order,
                         Rng& rng, const std::string& label,
                         size_t& wideDualBases)
{
    const size_t shots = 1 + rng.below(90);
    const ShotBatch batch = randomShots(dem, shots, rng);

    BpOptions bp;
    bp.maxIterations = 1 + rng.below(6);
    BpDecoder bpDecoder(dem, bp);

    OsdDecoder fastOsd(dem, order);
    OsdDecoder scalarOsd(dem, order);
    std::vector<uint8_t> errors;
    std::vector<uint32_t> flips;
    for (size_t s = 0; s < shots; ++s) {
        const BitVec syndrome = batch.syndromeOf(s);
        bpDecoder.decode(syndrome);
        const std::vector<float>& posterior = bpDecoder.posteriorLlr();
        const bool ok = scalarOsd.decode(syndrome, posterior, errors);
        ASSERT_EQ(fastOsd.solve(syndrome, posterior, flips), ok)
            << label << " s=" << s;
        if (!ok)
            continue;
        std::vector<uint8_t> fastErrors(dem.mechanisms.size(), 0);
        for (uint32_t v : flips)
            fastErrors[v] = 1;
        ASSERT_EQ(fastErrors, errors) << label << " s=" << s;
    }
    wideDualBases = fastOsd.wideDualBases();
}

TEST(DecoderFuzz, DirectSolveMatchesScalarOsd)
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
        size_t wide = 0;
        {
            Rng rng(0xd07b47c8ULL + iter);
            const DetectorErrorModel dem = randomDem(rng);
            ASSERT_NO_FATAL_FAILURE(expectSolveMatchesScalar(
                dem, 60, rng, "iter=" + std::to_string(iter), wide));
        }
        Rng rng(0x51de0000ULL + iter);
        const DetectorErrorModel dem = randomDem(rng, true);
        const size_t order = kOrders[iter % std::size(kOrders)];
        const std::string label = "wide iter=" + std::to_string(iter) +
            " order=" + std::to_string(order) +
            " det=" + std::to_string(dem.numDetectors) +
            " mechs=" + std::to_string(dem.mechanisms.size());
        ASSERT_NO_FATAL_FAILURE(
            expectSolveMatchesScalar(dem, order, rng, label, wide));
        wideDualBases += wide;
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

    BpOsdDecoder scalar(dem, bp);
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

/** The flips of a solve() as a per-mechanism errors vector. */
std::vector<uint8_t>
errorsOf(const DetectorErrorModel& dem, const std::vector<uint32_t>& flips)
{
    std::vector<uint8_t> errors(dem.mechanisms.size(), 0);
    for (uint32_t v : flips)
        errors[v] = 1;
    return errors;
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

    OsdDecoder fastOsd(dem);
    std::vector<uint32_t> flips;
    const bool fastOk = fastOsd.solve(syndrome, posterior, flips);

    OsdDecoder scalarOsd(dem);
    std::vector<uint8_t> errors;
    ASSERT_TRUE(scalarOsd.decode(syndrome, posterior, errors));
    ASSERT_TRUE(fastOk);
    EXPECT_EQ(errorsOf(dem, flips), errors);
    EXPECT_EQ(fastOsd.discoveredRank(), scalarOsd.discoveredRank());
}

TEST(OsdBatch, SharedPosteriorAcrossSyndromes)
{
    // Shots with the same posterior but different syndromes share the
    // whole reliability permutation; one persistent decoder must solve
    // each exactly as decode() does.
    const DetectorErrorModel dem = chainDem(12, 0.1);
    const size_t shots = 70;
    std::vector<float> posterior(dem.mechanisms.size());
    for (size_t v = 0; v < posterior.size(); ++v)
        posterior[v] = 0.25f * static_cast<float>((v * 7) % 13) - 1.0f;

    OsdDecoder fastOsd(dem);
    OsdDecoder scalarOsd(dem);
    std::vector<uint32_t> flips;
    std::vector<uint8_t> errors;
    for (size_t s = 0; s < shots; ++s) {
        BitVec syndrome(dem.numDetectors);
        syndrome.set(s % dem.numDetectors, true);
        if (s % 2 == 0)
            syndrome.set((s + 3) % dem.numDetectors, true);
        ASSERT_TRUE(scalarOsd.decode(syndrome, posterior, errors))
            << "s=" << s;
        ASSERT_TRUE(fastOsd.solve(syndrome, posterior, flips))
            << "s=" << s;
        ASSERT_EQ(errorsOf(dem, flips), errors) << "s=" << s;
    }
}

TEST(OsdBatch, ReliabilityTiesAtThePivotBoundary)
{
    // An all-ties posterior makes the reliability order pure index
    // order, putting equal keys on both sides of every pivot/reject
    // decision; a nudged copy reorders the prefix for the second shot.
    const DetectorErrorModel dem = chainDem(9, 0.1);
    std::vector<float> tied(dem.mechanisms.size(), 0.5f);
    std::vector<float> nudged = tied;
    nudged[3] = 0.4999f;

    BitVec sa(dem.numDetectors);
    sa.set(1, true);
    BitVec sb(dem.numDetectors);
    sb.set(4, true);

    OsdDecoder fastOsd(dem);
    OsdDecoder scalarOsd(dem);
    std::vector<uint32_t> flips;
    std::vector<uint8_t> errors;
    const std::vector<float>* posteriors[2] = {&tied, &nudged};
    const BitVec* syndromes[2] = {&sa, &sb};
    for (size_t s = 0; s < 2; ++s) {
        ASSERT_TRUE(scalarOsd.decode(*syndromes[s], *posteriors[s],
                                     errors));
        ASSERT_TRUE(fastOsd.solve(*syndromes[s], *posteriors[s], flips));
        EXPECT_EQ(errorsOf(dem, flips), errors) << "s=" << s;
    }
}

TEST(OsdBatch, PersistentDecoderMatchesFreshDecoder)
{
    // A persistent decoder carries its rank, dual basis and radix
    // buffers from one solve to the next. Every step must produce the
    // exact flips a fresh decoder produces — across sign flips,
    // signed-zero transitions, and duplicate LLRs.
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
        p4[v] += 1.0f; // every key moves
    steps.push_back(p4);

    BitVec syndrome(dem.numDetectors);
    syndrome.set(3, true);
    syndrome.set(8, true);

    OsdDecoder persistent(dem);
    std::vector<uint32_t> got;
    std::vector<uint32_t> want;
    for (size_t i = 0; i < steps.size(); ++i) {
        const bool gotOk = persistent.solve(syndrome, steps[i], got);
        OsdDecoder fresh(dem);
        ASSERT_EQ(gotOk, fresh.solve(syndrome, steps[i], want))
            << "step=" << i;
        ASSERT_EQ(got, want) << "step=" << i;
        EXPECT_EQ(persistent.discoveredRank(), fresh.discoveredRank())
            << "step=" << i;
    }
}

TEST(OsdBatch, PersistentDecoderSurvivesRandomPerturbationSequences)
{
    // Long random walks over a persistent decoder: each step perturbs
    // a random subset of posteriors (including exact ties with other
    // entries and sign flips through zero) and must stay bit-exact
    // with a fresh decoder.
    const DetectorErrorModel dem = chainDem(11, 0.1);
    const size_t n = dem.mechanisms.size();
    Rng rng(0x05eed5u);

    std::vector<float> llr(n);
    for (size_t v = 0; v < n; ++v)
        llr[v] = 0.125f * static_cast<float>(rng.next() % 33) - 2.0f;

    OsdDecoder persistent(dem);
    std::vector<uint32_t> got;
    std::vector<uint32_t> want;
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

        const bool gotOk = persistent.solve(syndrome, llr, got);
        OsdDecoder fresh(dem);
        ASSERT_EQ(gotOk, fresh.solve(syndrome, llr, want))
            << "round=" << round;
        ASSERT_EQ(got, want) << "round=" << round;
    }
}

} // namespace
} // namespace cyclone
