/**
 * @file
 * Streaming decode service tests: window assembly across round
 * slices, commit-after-final-round semantics, both flush policies
 * (with an injected virtual clock), latency/occupancy accounting, and
 * bit-identity of streamed corrections against offline decoding —
 * including through the campaign sampler's streamed chunk-group path.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/adaptive_sampler.h"
#include "common/rng.h"
#include "decoder/bposd_decoder.h"
#include "decoder/stream_decoder.h"
#include "dem/dem.h"
#include "dem/shot_batch.h"

namespace cyclone {
namespace {

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

/** Random shot set over `dem` (error patterns + raw syndromes). */
ShotBatch
randomShots(const DetectorErrorModel& dem, size_t shots, Rng& rng)
{
    ShotBatch batch;
    batch.reset(dem.numDetectors, shots);
    for (size_t s = 0; s < shots; ++s) {
        if (rng.below(2) == 0) {
            const size_t faults = rng.below(4);
            for (size_t f = 0; f < faults; ++f) {
                const DemMechanism& mech =
                    dem.mechanisms[rng.below(dem.mechanisms.size())];
                for (uint32_t d : mech.detectors)
                    batch.flipDetector(s, d);
            }
        } else {
            for (size_t d = 0; d < dem.numDetectors; ++d) {
                if (rng.below(6) == 0)
                    batch.flipDetector(s, d);
            }
        }
    }
    return batch;
}

/** Offline reference: per-shot scalar decode of every syndrome. */
std::vector<uint64_t>
offlinePredictions(const DetectorErrorModel& dem, const ShotBatch& batch)
{
    BpOsdDecoder reference(dem);
    std::vector<uint64_t> predicted;
    reference.decodeBatch(batch, predicted);
    return predicted;
}

TEST(StreamDecoder, WindowCommitsOnlyAfterFinalRound)
{
    const DetectorErrorModel dem = chainDem(10, 0.1);
    BpOsdDecoder decoder(dem);
    StreamDecoderOptions options;
    options.streams = 1;
    options.roundsPerWindow = 3;
    StreamDecoder stream(decoder, dem.numDetectors, options);

    BitVec syndrome(dem.numDetectors);
    syndrome.set(2, true);
    syndrome.set(7, true);

    stream.pushRound(0, syndrome);
    stream.pushRound(0, syndrome);
    EXPECT_EQ(stream.readyWindows(), 0u)
        << "window must not be ready before its final round slice";
    stream.pushRound(0, syndrome);
    EXPECT_EQ(stream.readyWindows(), 1u);
    EXPECT_TRUE(stream.committed().empty())
        << "full-wave policy must not flush a 1/64 slab";

    stream.finish();
    ASSERT_EQ(stream.committed().size(), 1u);
    BpOsdDecoder reference(dem);
    EXPECT_EQ(stream.committed()[0].prediction,
              reference.decode(syndrome));
    EXPECT_EQ(stream.stats().flushesFinal, 1u);
    EXPECT_EQ(stream.stats().roundsPushed, 3u);
    EXPECT_EQ(stream.stats().truncatedRounds, 0u);
}

TEST(StreamDecoder, RoundSlicesPartitionTheDetectorRange)
{
    const DetectorErrorModel dem = chainDem(14, 0.1);
    BpOsdDecoder decoder(dem);
    StreamDecoderOptions options;
    options.roundsPerWindow = 5; // 13 detectors: ragged slices
    StreamDecoder stream(decoder, dem.numDetectors, options);

    size_t covered = 0;
    for (size_t r = 0; r < 5; ++r) {
        EXPECT_EQ(stream.roundBegin(r), covered) << "r=" << r;
        EXPECT_GE(stream.roundEnd(r), stream.roundBegin(r));
        covered = stream.roundEnd(r);
    }
    EXPECT_EQ(covered, dem.numDetectors)
        << "slices must tile [0, numDetectors) exactly";
}

TEST(StreamDecoder, StreamedBitIdenticalToOfflineAcrossStreams)
{
    const DetectorErrorModel dem = chainDem(12, 0.1);
    Rng rng(0x57e4321ULL);
    const size_t shots = 150; // ragged: not a multiple of any S below
    const ShotBatch batch = randomShots(dem, shots, rng);
    const std::vector<uint64_t> expected =
        offlinePredictions(dem, batch);

    for (const size_t S : {size_t{1}, size_t{4}, size_t{7}}) {
        BpOsdDecoder decoder(dem);
        StreamDecoderOptions options;
        options.streams = S;
        options.roundsPerWindow = 2;
        StreamDecoder stream(decoder, dem.numDetectors, options);

        // Round-synchronous feed: shot w*S + s is stream s, window w.
        const size_t windows = (shots + S - 1) / S;
        for (size_t w = 0; w < windows; ++w) {
            for (size_t r = 0; r < 2; ++r) {
                for (size_t s = 0; s < S; ++s) {
                    const size_t flat = w * S + s;
                    if (flat < shots)
                        stream.pushRound(s, batch.syndromeOf(flat));
                }
                stream.poll();
            }
        }
        stream.finish();

        ASSERT_EQ(stream.committed().size(), shots) << "S=" << S;
        for (const CommittedWindow& c : stream.committed()) {
            const size_t flat = c.windowIndex * S + c.stream;
            ASSERT_LT(flat, shots) << "S=" << S;
            EXPECT_EQ(c.prediction, expected[flat])
                << "S=" << S << " flat=" << flat;
            EXPECT_GE(c.latencyUs, 0.0);
        }
        EXPECT_EQ(stream.stats().windows, shots) << "S=" << S;
    }
}

TEST(StreamDecoder, FullWavePolicyFillsSlabsCompletely)
{
    const DetectorErrorModel dem = chainDem(8, 0.1);
    BpOsdDecoder decoder(dem);
    StreamDecoderOptions options;
    options.streams = 8;
    options.capacityChunks = 2; // slab = 128 windows
    StreamDecoder stream(decoder, dem.numDetectors, options);
    ASSERT_EQ(stream.slabCapacity(), 128u);

    Rng rng(0xacc0feeULL);
    const size_t shots = 256; // exactly two full slabs
    const ShotBatch batch = randomShots(dem, shots, rng);
    for (size_t w = 0; w < shots / 8; ++w) {
        for (size_t s = 0; s < 8; ++s)
            stream.pushRound(s, batch.syndromeOf(w * 8 + s));
        stream.poll();
    }
    stream.finish();

    const StreamDecodeStats& st = stream.stats();
    EXPECT_EQ(st.flushesFull, 2u);
    EXPECT_EQ(st.flushesDeadline, 0u);
    EXPECT_EQ(st.flushesFinal, 0u);
    EXPECT_EQ(st.slabSlots, 256u);
    EXPECT_EQ(st.slabFilled, 256u);
    EXPECT_DOUBLE_EQ(st.slabOccupancy(), 1.0);
    EXPECT_EQ(stream.committed().size(), shots);
}

TEST(StreamDecoder, DeadlinePolicyFlushesOnVirtualClock)
{
    const DetectorErrorModel dem = chainDem(8, 0.1);
    BpOsdDecoder decoder(dem);
    double clockUs = 0.0;
    StreamDecoderOptions options;
    options.streams = 2;
    options.policy = FlushPolicy::Deadline;
    options.deadlineUs = 100.0;
    options.flushAfterUs = 40.0;
    options.nowUs = [&clockUs] { return clockUs; };
    StreamDecoder stream(decoder, dem.numDetectors, options);

    BitVec syndrome(dem.numDetectors);
    syndrome.set(1, true);

    // Two windows become ready at t=0; the slab (64 slots) is nowhere
    // near full, so only the deadline timer can flush them.
    stream.pushRound(0, syndrome);
    stream.pushRound(1, syndrome);
    stream.poll();
    EXPECT_TRUE(stream.committed().empty());
    EXPECT_EQ(stream.readyWindows(), 2u);

    clockUs = 39.0; // just under the flush timeout
    stream.poll();
    EXPECT_TRUE(stream.committed().empty());

    clockUs = 41.0; // oldest window has now waited > flushAfterUs
    stream.poll();
    ASSERT_EQ(stream.committed().size(), 2u);
    const StreamDecodeStats& st = stream.stats();
    EXPECT_EQ(st.flushesDeadline, 1u);
    EXPECT_EQ(st.flushesFull, 0u);
    EXPECT_EQ(st.deadlineMisses, 0u) << "41us < 100us deadline";
    for (const CommittedWindow& c : stream.committed())
        EXPECT_DOUBLE_EQ(c.latencyUs, 41.0);
    EXPECT_DOUBLE_EQ(st.latencyMaxUs, 41.0);
    EXPECT_DOUBLE_EQ(st.latencySumUs, 82.0);
}

TEST(StreamDecoder, DeadlineMissesAreCounted)
{
    const DetectorErrorModel dem = chainDem(8, 0.1);
    BpOsdDecoder decoder(dem);
    double clockUs = 0.0;
    StreamDecoderOptions options;
    options.policy = FlushPolicy::Deadline;
    options.deadlineUs = 10.0;
    options.flushAfterUs = 50.0; // flush far later than the deadline
    options.nowUs = [&clockUs] { return clockUs; };
    StreamDecoder stream(decoder, dem.numDetectors, options);

    BitVec syndrome(dem.numDetectors);
    stream.pushRound(0, syndrome);
    clockUs = 60.0;
    stream.poll();
    ASSERT_EQ(stream.committed().size(), 1u);
    EXPECT_EQ(stream.stats().deadlineMisses, 1u);
    EXPECT_DOUBLE_EQ(stream.stats().deadlineMissFraction(), 1.0);
}

TEST(StreamDecoder, FinishDiscardsAndCountsTruncatedRounds)
{
    const DetectorErrorModel dem = chainDem(10, 0.1);
    BpOsdDecoder decoder(dem);
    StreamDecoderOptions options;
    options.streams = 2;
    options.roundsPerWindow = 4;
    StreamDecoder stream(decoder, dem.numDetectors, options);

    BitVec syndrome(dem.numDetectors);
    syndrome.set(3, true);
    // Stream 0 completes one window; stream 1 is abandoned 3 rounds
    // into its window.
    for (size_t r = 0; r < 4; ++r)
        stream.pushRound(0, syndrome);
    for (size_t r = 0; r < 3; ++r)
        stream.pushRound(1, syndrome);
    stream.finish();

    EXPECT_EQ(stream.committed().size(), 1u);
    EXPECT_EQ(stream.committed()[0].stream, 0u);
    EXPECT_EQ(stream.stats().windows, 1u);
    EXPECT_EQ(stream.stats().truncatedRounds, 3u);
}

TEST(StreamDecoder, DecoderIsFreeAfterFinish)
{
    // Ready windows stage straight into the decoder's staged group;
    // finish() must close it, so the caller's offline decode works.
    const DetectorErrorModel dem = chainDem(10, 0.1);
    Rng rng(0xf1e1d);
    const ShotBatch batch = randomShots(dem, 20, rng);
    const std::vector<uint64_t> expected = offlinePredictions(dem, batch);

    BpOsdDecoder decoder(dem);
    StreamDecoderOptions options;
    options.streams = 3;
    options.roundsPerWindow = 2;
    StreamDecoder stream(decoder, dem.numDetectors, options);
    for (size_t s = 0; s < 3; ++s) {
        for (size_t r = 0; r < 2; ++r)
            stream.pushRound(s, batch.syndromeOf(s));
    }
    stream.pushRound(0, batch.syndromeOf(3)); // a truncated window
    stream.finish();
    ASSERT_EQ(stream.committed().size(), 3u);

    std::vector<uint64_t> predicted;
    decoder.decodeBatch(batch, predicted);
    EXPECT_EQ(predicted, expected);
    EXPECT_EQ(decoder.stats().decodes, 3 + batch.numShots);
}

TEST(StreamDecoder, LatencyHistogramQuantilesWithinBinResolution)
{
    LatencyHistogram h;
    for (size_t i = 0; i < 99; ++i)
        h.record(10.0);
    h.record(5000.0);
    EXPECT_EQ(h.count, 100u);
    // One bin spans a factor of 2^0.25 (~19%); quantiles must land in
    // the recorded value's bin.
    EXPECT_NEAR(h.quantileUs(0.5), 10.0, 10.0 * 0.2);
    EXPECT_NEAR(h.quantileUs(0.99), 10.0, 10.0 * 0.2);
    EXPECT_NEAR(h.quantileUs(0.999), 5000.0, 5000.0 * 0.2);

    LatencyHistogram other;
    other.record(10.0);
    h.merge(other);
    EXPECT_EQ(h.count, 101u);

    LatencyHistogram empty;
    EXPECT_DOUBLE_EQ(empty.quantileUs(0.5), 0.0);
}

TEST(StreamDecoder, StatsMergeIsAdditive)
{
    StreamDecodeStats a;
    a.windows = 10;
    a.latencySumUs = 100.0;
    a.latencyMaxUs = 30.0;
    a.slabSlots = 64;
    a.slabFilled = 32;
    a.latency.record(10.0);
    StreamDecodeStats b;
    b.windows = 5;
    b.latencySumUs = 25.0;
    b.latencyMaxUs = 50.0;
    b.slabSlots = 64;
    b.slabFilled = 64;
    b.deadlineUs = 200.0;
    b.latency.record(5.0);

    a.merge(b);
    EXPECT_EQ(a.windows, 15u);
    EXPECT_DOUBLE_EQ(a.latencySumUs, 125.0);
    EXPECT_DOUBLE_EQ(a.latencyMaxUs, 50.0);
    EXPECT_EQ(a.slabSlots, 128u);
    EXPECT_EQ(a.slabFilled, 96u);
    EXPECT_DOUBLE_EQ(a.deadlineUs, 200.0);
    EXPECT_EQ(a.latency.count, 2u);
    a.computePercentiles();
    EXPECT_GT(a.p50Us, 0.0);
    EXPECT_GE(a.p99Us, a.p50Us);
    EXPECT_GE(a.p999Us, a.p99Us);
}

TEST(StreamDecoder, ChunkGroupStreamedMatchesOfflineChunkGroup)
{
    const DetectorErrorModel dem = chainDem(12, 0.15);
    const size_t count = 3;
    std::vector<ChunkPlan> plans(count);
    for (size_t k = 0; k < count; ++k) {
        plans[k].index = k;
        plans[k].shots = 40 + 13 * k; // ragged chunk sizes
        plans[k].seed = chunkSeed(0xca3f00dULL, k);
    }

    BpOsdDecoder offline(dem);
    std::vector<ShotBatch> offlineBatches;
    const ChunkOutcome want =
        runChunkGroup(dem, plans.data(), count, offline, offlineBatches);
    const BpOsdStats& wantStats = offline.stats();

    for (const size_t S : {size_t{1}, size_t{5}, size_t{8}}) {
        BpOsdDecoder decoder(dem);
        StreamDecoderOptions options;
        options.streams = S;
        options.roundsPerWindow = 3;
        std::vector<ShotBatch> batches;
        StreamDecodeStats stats;
        const ChunkOutcome got =
            runChunkGroupStreamed(dem, plans.data(), count, decoder,
                                  batches, options, 1.0, stats);
        EXPECT_EQ(got.shots, want.shots) << "S=" << S;
        EXPECT_EQ(got.failures, want.failures) << "S=" << S;
        EXPECT_EQ(stats.windows, want.shots) << "S=" << S;

        // Only the grouping counters may differ from offline decoding.
        const BpOsdStats& st = decoder.stats();
        EXPECT_EQ(st.decodes, wantStats.decodes) << "S=" << S;
        EXPECT_EQ(st.trivialShots, wantStats.trivialShots) << "S=" << S;
        EXPECT_EQ(st.bpConverged, wantStats.bpConverged) << "S=" << S;
        EXPECT_EQ(st.osdInvocations, wantStats.osdInvocations)
            << "S=" << S;
        EXPECT_EQ(st.osdFailures, wantStats.osdFailures) << "S=" << S;
        EXPECT_EQ(st.bpIterations, wantStats.bpIterations) << "S=" << S;
    }
}

} // namespace
} // namespace cyclone
