/**
 * @file
 * Tests for BP, OSD and the combined BP+OSD decoder.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include <gtest/gtest.h>

#include "campaign/content_hash.h"
#include "circuit/memory_circuit.h"
#include "decoder/bp_math.h"
#include "decoder/bposd_decoder.h"
#include "decoder/exhaustive_decoder.h"
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
    // Data flips i: trigger detectors i-1 and i (boundary: one).
    // Flip on the last qubit also flips the observable.
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

TEST(BpDecoder, TrivialSyndromeConvergesToZero)
{
    auto dem = repetitionDem(9, 0.05);
    BpDecoder bp(dem);
    BitVec syndrome(dem.numDetectors);
    EXPECT_TRUE(bp.decode(syndrome));
    EXPECT_EQ(bp.hardDecision().popcount(), 0u);
    EXPECT_EQ(bp.lastIterations(), 0u);
}

TEST(BpDecoder, SingleFlipDecoded)
{
    auto dem = repetitionDem(9, 0.05);
    BpDecoder bp(dem);
    // Mechanism 3 fires: detectors 2 and 3.
    BitVec syndrome(dem.numDetectors);
    syndrome.set(2, true);
    syndrome.set(3, true);
    ASSERT_TRUE(bp.decode(syndrome));
    const BitVec& hard = bp.hardDecision();
    EXPECT_TRUE(hard.get(3));
    EXPECT_EQ(hard.popcount(), 1u);
}

TEST(BpDecoder, BoundaryFlipDecoded)
{
    auto dem = repetitionDem(7, 0.02);
    BpDecoder bp(dem);
    BitVec syndrome(dem.numDetectors);
    syndrome.set(0, true); // only mechanism 0 or a long chain explains
    ASSERT_TRUE(bp.decode(syndrome));
    EXPECT_TRUE(bp.hardDecision().get(0));
}

TEST(BpDecoder, ProductSumVariantAlsoDecodes)
{
    auto dem = repetitionDem(9, 0.05);
    BpOptions opts;
    opts.variant = BpOptions::Variant::ProductSum;
    BpDecoder bp(dem, opts);
    BitVec syndrome(dem.numDetectors);
    syndrome.set(4, true);
    syndrome.set(5, true);
    ASSERT_TRUE(bp.decode(syndrome));
    EXPECT_TRUE(bp.hardDecision().get(5));
}

/** Distance in floats between two non-negative finite floats. */
uint32_t
ulpDistance(float a, float b)
{
    const uint32_t x = std::bit_cast<uint32_t>(a);
    const uint32_t y = std::bit_cast<uint32_t>(b);
    return x > y ? x - y : y - x;
}

/** Checks approx within 1 ulp of the correctly rounded float of the
 *  double-precision `ref` on every `stride`-th float of [lo, hi] and
 *  on the listed points and their neighbours. */
template <typename Approx, typename Ref>
void
expectWithinOneUlp(Approx approx, Ref ref, float lo, float hi,
                   uint32_t stride, std::initializer_list<float> points)
{
    uint32_t worst = 0;
    float worst_x = lo;
    auto probe = [&](float x) {
        const float want =
            static_cast<float>(ref(static_cast<double>(x)));
        const uint32_t d = ulpDistance(approx(x), want);
        if (d > worst) {
            worst = d;
            worst_x = x;
        }
    };
    for (uint32_t b = std::bit_cast<uint32_t>(lo);
         b <= std::bit_cast<uint32_t>(hi); b += stride)
        probe(std::bit_cast<float>(b));
    for (float x : points) {
        probe(std::nextafter(x, 0.0f));
        probe(x);
        probe(std::nextafter(x, 3.0e38f));
    }
    EXPECT_LE(worst, 1u) << "at x = " << worst_x;
}

TEST(BpMath, TanhAndLogWithinOneUlp)
{
    // The product-sum check pass's domains: tanh of |m| / 2 with |m|
    // up to the message clamp, log of (1 + t) / (1 - t) up to the
    // ratio 2^25 its 1 - 6e-8 limit produces.
    const float limit = 1.0f - 6.0e-8f;
    const float max_ratio = (1.0f + limit) / (1.0f - limit);
    EXPECT_EQ(max_ratio, 33554432.0f);
    expectWithinOneUlp(bpTanh, [](double y) { return std::tanh(y); },
                       0.0f, 30.0f, 257,
                       {1e-12f, 1e-6f, 0.625f, 9.01f, 25.0f});
    // Every float just past the polynomial/exp switch, where the exp
    // branch's rounding errors are largest relative to the result.
    expectWithinOneUlp(bpTanh, [](double y) { return std::tanh(y); },
                       0.625f, 0.7f, 1, {});
    expectWithinOneUlp(bpLog, [](double x) { return std::log(x); },
                       1.0f, max_ratio, 61,
                       {1.0f, 1.41421356f, 2.0f, max_ratio});

    EXPECT_EQ(bpTanh(0.0f), 0.0f);
    EXPECT_EQ(bpLog(1.0f), 0.0f);
    // tanh(y) rounds to y this small, so the check pass's 1e-12 zero
    // test on t cuts exactly where it would on y.
    for (float y : {std::nextafter(1e-12f, 0.0f), 1e-12f,
                    std::nextafter(1e-12f, 1.0f)})
        EXPECT_EQ(bpTanh(y), y);
    // Saturation: below 1 under ~9.01, and exactly 1 for every float
    // from kBpTanhSaturated (the wave kernels' skip threshold) to 30;
    // past 30 the exponent cap makes every result the same.
    EXPECT_LT(bpTanh(9.0f), 1.0f);
    size_t unsaturated = 0;
    for (uint32_t b = std::bit_cast<uint32_t>(kBpTanhSaturated);
         b <= std::bit_cast<uint32_t>(30.0f); ++b)
        unsaturated += bpTanh(std::bit_cast<float>(b)) != 1.0f;
    EXPECT_EQ(unsaturated, 0u);
    EXPECT_EQ(bpTanh(3.0e38f), 1.0f);
}

TEST(BpDecoder, ProductSumGoldenDigest)
{
    // Posteriors and iteration counts of a fixed syndrome set, hashed
    // bit-for-bit: any drift in the product-sum math (a libm creeping
    // back in, multiply-add contraction, a reordered operation) fails
    // here on every host, not just where the wave rungs are compared.
    const auto dem = surface13Dem(0.01);
    BpDecoder bp(dem);
    Rng rng(57);
    const DemShots shots = sampleDem(dem, 64, rng);
    HashStream h;
    for (const BitVec& syndrome : shots.syndromes) {
        h.absorb(uint64_t{bp.decode(syndrome)});
        h.absorb(uint64_t{bp.lastIterations()});
        for (float llr : bp.posteriorLlr())
            h.absorb(uint64_t{std::bit_cast<uint32_t>(llr)});
    }
    EXPECT_EQ(h.digest(), 0xeab797c82055dd83ull);
}

TEST(BpGraph, PriorGoldenDigest)
{
    // BpGraph takes one double-precision std::log per mechanism; pin
    // the float priors it produces so a host libm that rounds them
    // differently is caught.
    const BpGraph graph(surface13Dem(0.003));
    HashStream h;
    for (float prior : graph.prior)
        h.absorb(uint64_t{std::bit_cast<uint32_t>(prior)});
    EXPECT_EQ(h.digest(), 0xd6caac7a02691caaull);
}

TEST(OsdDecoder, SolvesEverySingleMechanismSyndrome)
{
    auto dem = surface13Dem(0.003);
    OsdDecoder osd(dem);
    // Uniform priors: pass prior LLRs as posteriors.
    std::vector<float> llr(dem.mechanisms.size());
    for (size_t v = 0; v < llr.size(); ++v) {
        const double p = dem.mechanisms[v].probability;
        llr[v] = static_cast<float>(std::log((1.0 - p) / p));
    }
    std::vector<uint8_t> errors;
    for (size_t v = 0; v < dem.mechanisms.size(); v += 7) {
        BitVec syndrome(dem.numDetectors);
        for (uint32_t d : dem.mechanisms[v].detectors)
            syndrome.flip(d);
        ASSERT_TRUE(osd.decode(syndrome, llr, errors));
        // Verify the correction reproduces the syndrome.
        BitVec check(dem.numDetectors);
        for (size_t e = 0; e < errors.size(); ++e) {
            if (errors[e]) {
                for (uint32_t d : dem.mechanisms[e].detectors)
                    check.flip(d);
            }
        }
        EXPECT_EQ(check, syndrome);
    }
    EXPECT_GT(osd.discoveredRank(), 0u);
    EXPECT_LE(osd.discoveredRank(), dem.numDetectors);
}

TEST(BpOsd, CorrectsAllSingleMechanisms)
{
    // Distance-3 code, 2 rounds: every single fault must be decoded
    // to the correct observable outcome.
    auto dem = surface13Dem(0.003);
    BpOsdDecoder decoder(dem);
    size_t failures = 0;
    for (size_t v = 0; v < dem.mechanisms.size(); ++v) {
        BitVec syndrome(dem.numDetectors);
        for (uint32_t d : dem.mechanisms[v].detectors)
            syndrome.flip(d);
        const uint64_t predicted = decoder.decode(syndrome);
        if (predicted != dem.mechanisms[v].observables)
            ++failures;
    }
    EXPECT_EQ(failures, 0u)
        << failures << " of " << dem.mechanisms.size()
        << " single faults misdecoded";
}

TEST(BpOsd, AgreesWithExhaustiveOnSmallModel)
{
    // A small hand model where ML decoding is enumerable.
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.01, {0}, 0});
    dem.mechanisms.push_back({0.01, {0, 1}, 1});
    dem.mechanisms.push_back({0.02, {1, 2}, 0});
    dem.mechanisms.push_back({0.01, {2, 3}, 1});
    dem.mechanisms.push_back({0.015, {3}, 0});
    dem.mechanisms.push_back({0.001, {0, 3}, 1});

    BpOsdDecoder bposd(dem);
    ExhaustiveDecoder exact(dem, 3);
    Rng rng(23);
    auto shots = sampleDem(dem, 300, rng);
    size_t disagreements = 0;
    for (size_t s = 0; s < shots.syndromes.size(); ++s) {
        const uint64_t a = bposd.decode(shots.syndromes[s]);
        const uint64_t b = exact.decode(shots.syndromes[s]);
        if (a != b)
            ++disagreements;
    }
    // BP+OSD is near-ML on such tiny models.
    EXPECT_LE(disagreements, 6u);
}

TEST(BpOsd, StatsAreConsistent)
{
    auto dem = surface13Dem(0.01);
    BpOsdDecoder decoder(dem);
    Rng rng(31);
    auto shots = sampleDem(dem, 100, rng);
    for (const BitVec& s : shots.syndromes)
        decoder.decode(s);
    const BpOsdStats& st = decoder.stats();
    EXPECT_EQ(st.decodes, 100u);
    EXPECT_EQ(st.bpConverged + st.osdInvocations, 100u);
    EXPECT_LE(st.osdFailures, st.osdInvocations);
}

TEST(Exhaustive, FindsExactMatch)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.1, {0}, 1});
    dem.mechanisms.push_back({0.1, {1}, 0});
    ExhaustiveDecoder decoder(dem, 2);
    BitVec syndrome(2);
    syndrome.set(0, true);
    EXPECT_EQ(decoder.decode(syndrome), 1u);
    EXPECT_TRUE(decoder.lastDecodeMatched());
    syndrome.set(1, true);
    EXPECT_EQ(decoder.decode(syndrome), 1u);
}

} // namespace
} // namespace cyclone
