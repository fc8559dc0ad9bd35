/**
 * @file
 * Tests for detector error model extraction and sampling.
 *
 * The builder is pinned three ways: hand-built circuits with known
 * answers, golden digests of four code-scale DEMs, and a differential
 * fuzz against single-fault frame propagation. Golden digests of
 * batches sampled from two of those DEMs pin the packed sampler. CI
 * runs the fuzz with a fixed seed set; set CYCLONE_FUZZ_ITERS to a
 * larger count for deeper runs (each iteration is one random circuit
 * per register size from 2 to 6 qubits).
 */

// The fuzz's reference folds merged probabilities exactly as the
// builder does, so it must round like it: no multiply-add contraction.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <bit>
#include <cmath>
#include <ios>
#include <iterator>

#include <gtest/gtest.h>

#include "campaign/content_hash.h"
#include "circuit/frame_simulator.h"
#include "circuit/memory_circuit.h"
#include "dem/dem_builder.h"
#include "dem/dem_sampler.h"
#include "fuzz_iterations.h"
#include "qec/classical_code.h"
#include "qec/code_catalog.h"
#include "qec/hgp_code.h"
#include "qec/schedule.h"

namespace cyclone {
namespace {

CssCode
surface13()
{
    return makeHgpCode(ClassicalCode::repetition(3), 3);
}

TEST(DemBuilder, SingleXErrorSingleMechanism)
{
    Circuit c(1);
    c.xError(0, 0.125);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_DOUBLE_EQ(dem.mechanisms[0].probability, 0.125);
    ASSERT_EQ(dem.mechanisms[0].detectors.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].detectors[0], 0u);
}

TEST(DemBuilder, IdenticalMechanismsMerge)
{
    // Two X errors at the same spot merge with OR-combined
    // probability p1 (1 - p2) + p2 (1 - p1).
    Circuit c(1);
    c.xError(0, 0.1);
    c.xError(0, 0.2);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_NEAR(dem.mechanisms[0].probability,
                0.1 * 0.8 + 0.2 * 0.9, 1e-12);
}

TEST(DemBuilder, InvisibleErrorsDropped)
{
    // A Z error before a Z measurement affects nothing.
    Circuit c(1);
    c.zError(0, 0.3);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    EXPECT_TRUE(dem.mechanisms.empty());
}

TEST(DemBuilder, Depolarize1SplitsIntoVisibleComponents)
{
    // On a Z measurement, X and Y components are visible and have
    // the same signature: they merge. Z is invisible.
    Circuit c(1);
    c.depolarize1(0, 0.3);
    c.measureZ(0);
    c.addDetector({0});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    const double p = 0.1; // each component
    EXPECT_NEAR(dem.mechanisms[0].probability,
                p * (1 - p) + p * (1 - p), 1e-12);
}

TEST(DemBuilder, ObservableTracking)
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.measureZ(0);
    c.measureZ(1);
    c.addDetector({0});
    c.addObservable(2, {0, 1});
    auto dem = buildDetectorErrorModel(c);
    ASSERT_EQ(dem.mechanisms.size(), 1u);
    EXPECT_EQ(dem.mechanisms[0].observables, uint64_t(1) << 2);
    EXPECT_EQ(dem.numObservables, 3u);
}

TEST(DemBuilder, MechanismSignaturesMatchFramePropagation)
{
    // Cross-validation: every XError/ZError mechanism's detector set
    // must equal what single-fault frame propagation reports.
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    // Probe circuit with preparation errors only: every noise site is
    // a single X or Z flip whose signature we can check one by one.
    MemoryCircuitOptions probe_opts;
    probe_opts.rounds = 2;
    probe_opts.noise = NoiseModel::uniform(0.0);
    probe_opts.noise.prepError = 0.01;
    Circuit probe = buildZMemoryCircuit(code, sched, probe_opts);

    auto dem = buildDetectorErrorModel(probe);
    FrameSimulator sim(probe);
    // Every prep-error op: propagate its fault and find the matching
    // mechanism (or confirm it is invisible).
    size_t checked = 0;
    for (size_t i = 0; i < probe.ops().size(); ++i) {
        const Op& op = probe.ops()[i];
        if (op.kind != OpKind::XError && op.kind != OpKind::ZError)
            continue;
        BitVec flips;
        uint64_t obs = 0;
        sim.propagateFault(i, op.targets[0],
                           op.kind == OpKind::XError,
                           op.kind == OpKind::ZError, flips, obs);
        const auto positions = flips.onesPositions();
        std::vector<uint32_t> dets(positions.begin(), positions.end());
        if (dets.empty() && obs == 0)
            continue; // invisible fault
        bool found = false;
        for (const DemMechanism& m : dem.mechanisms) {
            if (m.observables == obs && m.detectors == dets) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << "op " << i << " signature missing";
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST(DemBuilder, ExpectedErrorsMatchesProbabilitySum)
{
    Circuit c(2);
    c.xError(0, 0.1);
    c.zError(1, 0.0); // skipped
    c.measureZ(0);
    c.measureZ(1);
    c.addDetector({0});
    c.addDetector({1});
    auto dem = buildDetectorErrorModel(c);
    EXPECT_NEAR(dem.expectedErrorsPerShot(), 0.1, 1e-12);
}

TEST(DemBuilder, Deterministic)
{
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 2;
    opts.noise = NoiseModel::uniform(0.01);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);
    auto a = buildDetectorErrorModel(circuit);
    auto b = buildDetectorErrorModel(circuit);
    ASSERT_EQ(a.mechanisms.size(), b.mechanisms.size());
    EXPECT_NEAR(a.expectedErrorsPerShot(), b.expectedErrorsPerShot(),
                1e-12);
    for (size_t i = 0; i < a.mechanisms.size(); ++i) {
        EXPECT_EQ(a.mechanisms[i].detectors,
                  b.mechanisms[i].detectors);
        EXPECT_EQ(a.mechanisms[i].observables,
                  b.mechanisms[i].observables);
    }
}

TEST(DemBuilder, LatencyChannelAddsMechanisms)
{
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions quiet;
    quiet.rounds = 2;
    quiet.noise = NoiseModel::uniform(0.01);
    MemoryCircuitOptions slow = quiet;
    slow.noise = NoiseModel::withLatency(0.01, 200000.0);
    auto dem_quiet =
        buildDetectorErrorModel(buildZMemoryCircuit(code, sched, quiet));
    auto dem_slow =
        buildDetectorErrorModel(buildZMemoryCircuit(code, sched, slow));
    EXPECT_GT(dem_slow.expectedErrorsPerShot(),
              dem_quiet.expectedErrorsPerShot());
}

/** HashStream digest of a DEM: its sizes, then each mechanism's
 *  probability bits, observable mask, detector count and indices. */
uint64_t
demDigest(const DetectorErrorModel& dem)
{
    HashStream h;
    h.absorb(uint64_t{dem.numDetectors})
        .absorb(uint64_t{dem.numObservables});
    for (const DemMechanism& m : dem.mechanisms) {
        h.absorb(m.probability)
            .absorb(m.observables)
            .absorb(uint64_t{m.detectors.size()});
        for (uint32_t d : m.detectors)
            h.absorb(uint64_t{d});
    }
    return h.digest();
}

/** A code-scale memory DEM whose probabilities are all literals, a
 *  literal / 3 or / 15, or a merge fold of those: no libm call feeds
 *  one. The per-qubit twirl table takes the Pauli1 path, zero
 *  components included. */
DetectorErrorModel
literalDem(const CssCode& code, bool xBasis)
{
    static const PauliTwirl kTwirls[] = {
        {2.5e-4, 2.5e-4, 5e-4}, {1e-4, 0.0, 3e-4}, {0.0, 0.0, 7e-4},
        {6e-4, 2e-4, 0.0},      {1.5e-4, 1.5e-4, 1.5e-4},
    };
    MemoryCircuitOptions opts;
    opts.noise = NoiseModel::uniform(1e-3);
    for (size_t q = 0; q < code.numQubits(); ++q)
        opts.perQubitIdle.push_back(kTwirls[q % std::size(kTwirls)]);
    const SyndromeSchedule sched = makeXThenZSchedule(code);
    return buildDetectorErrorModel(
        xBasis ? buildXMemoryCircuit(code, sched, opts)
               : buildZMemoryCircuit(code, sched, opts));
}

TEST(DemBuilder, GoldenDigests)
{
    // Every bit of four code-scale DEMs, pinned on every host CI runs.
    // A change that means to move a DEM updates these values.
    struct Case
    {
        const char* name;
        CssCode code;
        bool xBasis;
        uint64_t digest;
    };
    const Case cases[] = {
        {"bb72/z", catalog::bb72(), false, 0x8887e8f202969fbeull},
        {"bb72/x", catalog::bb72(), true, 0x8cda846cdf42d9ebull},
        {"hgp225/z", catalog::hgp225(), false, 0xa265cbd64be0f36aull},
        {"hgp225/x", catalog::hgp225(), true, 0x31225215a1d8c873ull},
    };
    for (const Case& c : cases) {
        const uint64_t got = demDigest(literalDem(c.code, c.xBasis));
        EXPECT_EQ(got, c.digest)
            << c.name << ": digest 0x" << std::hex << got;
    }
}

/** Random circuit on `nq` qubits with every op kind: both resets and
 *  measurement bases, CX, the five channels (probabilities from a
 *  small set, so signatures merge), channels right before a reset and
 *  after the last measurement, detectors that reference a record
 *  twice or share one, and observables 0 and 63. */
Circuit
randomCircuit(Rng& rng, uint32_t nq)
{
    static const double kP[] = {1e-3, 0.01, 0.125, 0.25};
    static const double kPauli[] = {0.0, 1e-3, 0.01, 0.125};
    Circuit c(nq);
    auto qubit = [&] { return static_cast<uint32_t>(rng.below(nq)); };
    auto other = [&](uint32_t a) {
        return static_cast<uint32_t>((a + 1 + rng.below(nq - 1)) % nq);
    };
    auto p = [&] { return kP[rng.below(std::size(kP))]; };
    auto record = [&] {
        return static_cast<uint32_t>(rng.below(c.numMeasurements()));
    };
    auto channel = [&](uint32_t q) {
        switch (rng.below(5)) {
          case 0: c.xError(q, p()); break;
          case 1: c.zError(q, p()); break;
          case 2: c.depolarize1(q, p()); break;
          case 3: c.depolarize2(q, other(q), p()); break;
          default:
            c.pauli1(q, kPauli[rng.below(4)], kPauli[rng.below(4)],
                     kPauli[rng.below(4)]);
            break;
        }
    };
    auto measure = [&](uint32_t q) {
        if (rng.below(2) == 0)
            c.measureZ(q);
        else
            c.measureX(q);
    };
    auto detector = [&] {
        std::vector<uint32_t> refs;
        for (size_t k = 1 + rng.below(3); k > 0; --k)
            refs.push_back(record());
        c.addDetector(refs);
    };

    for (uint32_t q = 0; q < nq; ++q) {
        if (rng.below(2) == 0)
            c.resetZ(q);
        else
            c.resetX(q);
    }
    const size_t steps = 20 + rng.below(40);
    for (size_t s = 0; s < steps; ++s) {
        const uint32_t q = qubit();
        switch (rng.below(10)) {
          case 0:
            channel(q); // a channel right before a reset
            [[fallthrough]];
          case 1:
            if (rng.below(2) == 0)
                c.resetZ(q);
            else
                c.resetX(q);
            break;
          case 2:
          case 3:
            measure(q);
            break;
          case 4:
          case 5:
            c.cx(q, other(q));
            break;
          case 6:
            if (c.numMeasurements() > 0)
                detector();
            break;
          default:
            channel(q);
            break;
        }
    }
    for (uint32_t q = 0; q < nq; ++q)
        measure(q);
    channel(qubit()); // after the last measurement: invisible
    for (size_t k = rng.below(4); k > 0; --k)
        detector();
    const uint32_t m = record();
    c.addDetector({m, m, record()}); // a record twice: it cancels
    c.addDetector({m});              // shares m
    c.addObservable(0, {record(), record()});
    c.addObservable(63, {record()});
    return c;
}

/**
 * Reference DEM of `circuit`: each channel component's signature
 * from FrameSimulator::propagateFault, one component at a time (a
 * two-qubit Pauli as the XOR of its two one-qubit halves), added in
 * the builder's order under its merge rule. Counts merges.
 */
DetectorErrorModel
referenceDem(const Circuit& circuit, size_t& merges)
{
    const FrameSimulator sim(circuit);
    DetectorErrorModel dem;
    dem.numDetectors = circuit.numDetectors();
    dem.numObservables = circuit.numObservables();
    // The Pauli (xa, za) on targets[0] times (xb, zb) on targets[1].
    auto add = [&](size_t i, bool xa, bool za, bool xb, bool zb,
                   double p) {
        const Op& op = circuit.ops()[i];
        BitVec flips(circuit.numDetectors());
        uint64_t obs = 0;
        if (xa || za)
            sim.propagateFault(i, op.targets[0], xa, za, flips, obs);
        if (xb || zb) {
            BitVec more;
            uint64_t moreObs = 0;
            sim.propagateFault(i, op.targets[1], xb, zb, more, moreObs);
            flips ^= more;
            obs ^= moreObs;
        }
        const auto ones = flips.onesPositions();
        const std::vector<uint32_t> dets(ones.begin(), ones.end());
        if (p <= 0.0 || (dets.empty() && obs == 0))
            return;
        for (DemMechanism& m : dem.mechanisms) {
            if (m.observables == obs && m.detectors == dets) {
                m.probability = m.probability * (1.0 - p) +
                    p * (1.0 - m.probability);
                ++merges;
                return;
            }
        }
        dem.mechanisms.push_back({p, dets, obs});
    };
    for (size_t i = 0; i < circuit.ops().size(); ++i) {
        const Op& op = circuit.ops()[i];
        switch (op.kind) {
          case OpKind::XError:
            add(i, true, false, false, false, op.params[0]);
            break;
          case OpKind::ZError:
            add(i, false, true, false, false, op.params[0]);
            break;
          case OpKind::Depolarize1:
            add(i, true, false, false, false, op.params[0] / 3.0);
            add(i, false, true, false, false, op.params[0] / 3.0);
            add(i, true, true, false, false, op.params[0] / 3.0);
            break;
          case OpKind::Pauli1:
            add(i, true, false, false, false, op.params[0]);
            add(i, true, true, false, false, op.params[1]);
            add(i, false, true, false, false, op.params[2]);
            break;
          case OpKind::Depolarize2:
            for (unsigned combo = 1; combo < 16; ++combo)
                add(i, combo & 1, combo & 2, combo & 4, combo & 8,
                    op.params[0] / 15.0);
            break;
          default:
            break;
        }
    }
    return dem;
}

TEST(DemBuilderFuzz, MatchesFramePropagation)
{
    Rng rng(0xdeb0);
    size_t merges = 0;
    size_t mechanisms = 0;
    std::vector<size_t> kinds(size_t(OpKind::Observable) + 1, 0);
    for (size_t iter = 0; iter < fuzzIterations(); ++iter) {
        for (uint32_t nq = 2; nq <= 6; ++nq) {
            const Circuit circuit = randomCircuit(rng, nq);
            for (const Op& op : circuit.ops())
                ++kinds[size_t(op.kind)];
            const DetectorErrorModel want = referenceDem(circuit, merges);
            const DetectorErrorModel got = buildDetectorErrorModel(circuit);
            const std::string where = "iteration " +
                std::to_string(iter) + ", " + std::to_string(nq) +
                " qubits:\n" + circuit.toString();
            ASSERT_EQ(got.numDetectors, want.numDetectors) << where;
            ASSERT_EQ(got.numObservables, want.numObservables) << where;
            ASSERT_EQ(got.mechanisms.size(), want.mechanisms.size())
                << where;
            for (size_t m = 0; m < want.mechanisms.size(); ++m) {
                const DemMechanism& a = got.mechanisms[m];
                const DemMechanism& b = want.mechanisms[m];
                ASSERT_EQ(std::bit_cast<uint64_t>(a.probability),
                          std::bit_cast<uint64_t>(b.probability))
                    << "mechanism " << m << ", " << where;
                ASSERT_EQ(a.detectors, b.detectors)
                    << "mechanism " << m << ", " << where;
                ASSERT_EQ(a.observables, b.observables)
                    << "mechanism " << m << ", " << where;
            }
            mechanisms += want.mechanisms.size();
        }
    }
    for (size_t k = 0; k < kinds.size(); ++k)
        EXPECT_GT(kinds[k], 0u) << "op kind " << k << " never drawn";
    EXPECT_GT(merges, 0u);
    EXPECT_GT(mechanisms, 0u);
}

TEST(DemSampler, ZeroProbabilityNeverFires)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.mechanisms.push_back({0.0, {0}, 0});
    Rng rng(3);
    auto shots = sampleDem(dem, 100, rng);
    for (const BitVec& s : shots.syndromes)
        EXPECT_TRUE(s.isZero());
}

TEST(DemSampler, CertainMechanismAlwaysFires)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({1.0, {1}, 1});
    Rng rng(3);
    auto shots = sampleDem(dem, 50, rng);
    for (size_t i = 0; i < 50; ++i) {
        EXPECT_TRUE(shots.syndromes[i].get(1));
        EXPECT_EQ(shots.observables[i], 1u);
    }
}

TEST(DemSampler, FiringRateMatchesProbability)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.mechanisms.push_back({0.3, {0}, 0});
    Rng rng(5);
    const size_t shots = 20000;
    auto s = sampleDem(dem, shots, rng);
    size_t fired = 0;
    for (const BitVec& v : s.syndromes)
        fired += v.get(0);
    EXPECT_NEAR(static_cast<double>(fired) / shots, 0.3, 0.02);
}

TEST(DemSampler, MarginalsMatchFrameSimulator)
{
    // End-to-end: per-detector flip rates from the DEM sampler track
    // the frame simulator on the same noisy circuit.
    CssCode code = surface13();
    SyndromeSchedule sched = makeXThenZSchedule(code);
    MemoryCircuitOptions opts;
    opts.rounds = 2;
    opts.noise = NoiseModel::uniform(0.01);
    Circuit circuit = buildZMemoryCircuit(code, sched, opts);

    const size_t shots = 4000;
    Rng rng_frame(7), rng_dem(9);
    FrameSimulator sim(circuit);
    auto frame_samples = sim.sample(shots, rng_frame);
    auto dem = buildDetectorErrorModel(circuit);
    auto dem_samples = sampleDem(dem, shots, rng_dem);

    double total_frame = 0.0, total_dem = 0.0;
    for (size_t s = 0; s < shots; ++s) {
        total_frame += frame_samples.detectors[s].popcount();
        total_dem += dem_samples.syndromes[s].popcount();
    }
    const double mean_frame = total_frame / shots;
    const double mean_dem = total_dem / shots;
    // Independent-mechanism decomposition differs from exact channel
    // sampling at O(p^2); allow 10% plus statistical slack.
    EXPECT_NEAR(mean_dem, mean_frame,
                0.1 * mean_frame + 0.3);
}

/** HashStream digest of a sampled batch: its sizes, then each shot's
 *  syndrome words and observable mask. It reads shots through
 *  syndromeOf, so it does not depend on the batch's word layout. */
uint64_t
batchDigest(const ShotBatch& batch)
{
    HashStream h;
    h.absorb(uint64_t{batch.numDetectors})
        .absorb(uint64_t{batch.numShots});
    for (size_t s = 0; s < batch.numShots; ++s) {
        const BitVec syndrome = batch.syndromeOf(s);
        for (uint64_t word : syndrome.words())
            h.absorb(word);
        h.absorb(batch.observables[s]);
    }
    return h.digest();
}

TEST(DemSampler, GoldenDigests)
{
    // Every sampled bit of eight packed batches, pinned on every host
    // CI runs: two of DemBuilder.GoldenDigests' DEMs, at seeds 1 and
    // 2, with 32 shots (perfbench hgp225_fig15's chunk) and 1,000. A
    // change that means to move sampled shots updates these values.
    struct Case
    {
        const char* name;
        CssCode code;
        uint64_t digests[2][2]; ///< [seed 1, 2][32, 1000 shots]
    };
    const Case cases[] = {
        {"bb72/z",
         catalog::bb72(),
         {{0x1a6b30f75f88c3caull, 0x58ff6f6bbc3d5b5cull},
          {0x904745e78acc5936ull, 0x73ed9ec1f3574bbdull}}},
        {"hgp225/z",
         catalog::hgp225(),
         {{0xd908fdb8233dc493ull, 0x467a34db991f641dull},
          {0x680588d96296340cull, 0x7284d8d247fa7008ull}}},
    };
    const size_t kShots[] = {32, 1000};
    ShotBatch batch;
    for (const Case& c : cases) {
        const DetectorErrorModel dem = literalDem(c.code, false);
        for (uint64_t seed : {1, 2}) {
            for (size_t i = 0; i < std::size(kShots); ++i) {
                Rng rng(seed);
                sampleDemBatch(dem, kShots[i], rng, batch);
                const uint64_t got = batchDigest(batch);
                EXPECT_EQ(got, c.digests[seed - 1][i])
                    << c.name << " seed " << seed << " shots "
                    << kShots[i] << ": digest 0x" << std::hex << got;
            }
        }
    }
}

} // namespace
} // namespace cyclone
