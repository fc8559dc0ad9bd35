#include "decoder/stream_decoder.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"

namespace cyclone {

namespace {

double
steadyNowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
LatencyHistogram::record(double us)
{
    size_t bin = 0;
    if (us > kMinUs) {
        const double octaves = std::log2(us / kMinUs);
        bin = std::min(kBins - 1,
                       static_cast<size_t>(octaves *
                                           static_cast<double>(
                                               kBinsPerOctave)));
    }
    ++bins[bin];
    ++count;
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (size_t i = 0; i < kBins; ++i)
        bins[i] += other.bins[i];
    count += other.count;
}

double
LatencyHistogram::quantileUs(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const uint64_t target = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(q * static_cast<double>(count))));
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kBins; ++i) {
        cumulative += bins[i];
        if (cumulative >= target) {
            const double mid = (static_cast<double>(i) + 0.5) /
                static_cast<double>(kBinsPerOctave);
            return kMinUs * std::exp2(mid);
        }
    }
    return kMinUs * std::exp2(static_cast<double>(kBins) /
                              static_cast<double>(kBinsPerOctave));
}

std::span<const StatField<StreamDecodeStats>>
StreamDecodeStats::fields()
{
    // Everything the wall clock decides is timing: latencies, misses,
    // and — under the deadline policy — when slabs flush and how full.
    // Percentiles are recomputed from the merged histogram, so merging
    // merely carries the first one along.
    using S = StreamDecodeStats;
    constexpr MergeRule kSum = MergeRule::Sum;
    constexpr FieldKind kTiming = FieldKind::Timing;
    static const StatField<S> kFields[] = {
        {"windows", &S::windows},
        {"rounds_pushed", &S::roundsPushed},
        {"truncated_rounds", &S::truncatedRounds},
        {"deadline_us", &S::deadlineUs, MergeRule::First},
        {"deadline_misses", &S::deadlineMisses, kSum, kTiming},
        {"miss_fraction", &S::deadlineMissFraction, kSum, kTiming},
        {"latency_sum_us", &S::latencySumUs, kSum, kTiming},
        {"latency_max_us", &S::latencyMaxUs, MergeRule::Max, kTiming},
        {"latency_p50_us", &S::p50Us, MergeRule::First, kTiming},
        {"latency_p99_us", &S::p99Us, MergeRule::First, kTiming},
        {"latency_p999_us", &S::p999Us, MergeRule::First, kTiming},
        {"latency_mean_us", &S::meanLatencyUs, kSum, kTiming},
        {"slab_slots", &S::slabSlots, kSum, kTiming},
        {"slab_filled", &S::slabFilled, kSum, kTiming},
        {"slab_occupancy", &S::slabOccupancy, kSum, kTiming},
        {"flushes_full", &S::flushesFull, kSum, kTiming},
        {"flushes_deadline", &S::flushesDeadline, kSum, kTiming},
        {"flushes_final", &S::flushesFinal, kSum, kTiming},
    };
    return kFields;
}

void
StreamDecodeStats::merge(const StreamDecodeStats& other)
{
    mergeStats(*this, other);
    latency.merge(other.latency);
}

void
StreamDecodeStats::computePercentiles()
{
    p50Us = latency.quantileUs(0.50);
    p99Us = latency.quantileUs(0.99);
    p999Us = latency.quantileUs(0.999);
}

StreamDecoder::StreamDecoder(BpOsdDecoder& decoder, size_t numDetectors,
                             StreamDecoderOptions options)
    : decoder_(decoder), numDetectors_(numDetectors),
      options_(std::move(options))
{
    if (options_.streams == 0)
        options_.streams = 1;
    if (options_.roundsPerWindow == 0)
        options_.roundsPerWindow = 1;
    if (options_.capacityChunks == 0)
        options_.capacityChunks = 1;
    if (!options_.nowUs)
        options_.nowUs = steadyNowUs;
    flushAfterUs_ = options_.flushAfterUs > 0.0
        ? options_.flushAfterUs
        : options_.deadlineUs * 0.5;
    stats_.deadlineUs = options_.deadlineUs;

    states_.resize(options_.streams);
    for (StreamState& st : states_)
        st.window.resize(numDetectors_);
    chunks_.resize(options_.capacityChunks);
    for (ShotBatch& chunk : chunks_)
        chunk.reset(numDetectors_, 64);
    pending_.reserve(slabCapacity());
}

StreamDecodeStats
StreamDecoder::takeStats()
{
    StreamDecodeStats taken = stats_;
    stats_ = StreamDecodeStats{};
    stats_.deadlineUs = options_.deadlineUs;
    return taken;
}

size_t
StreamDecoder::roundBegin(size_t r) const
{
    return r * numDetectors_ / options_.roundsPerWindow;
}

size_t
StreamDecoder::roundEnd(size_t r) const
{
    return (r + 1) * numDetectors_ / options_.roundsPerWindow;
}

void
StreamDecoder::pushRound(size_t stream, const BitVec& windowSyndrome)
{
    CYCLONE_ASSERT(stream < states_.size(),
                   "stream " << stream << " out of range");
    CYCLONE_ASSERT(windowSyndrome.size() == numDetectors_,
                   "window syndrome has " << windowSyndrome.size()
                                          << " detectors, DEM has "
                                          << numDetectors_);
    StreamState& st = states_[stream];
    const size_t begin = roundBegin(st.round);
    const size_t end = roundEnd(st.round);
    ++stats_.roundsPushed;

    if (begin < end) {
        // Masked word-range OR: the slice occupies the same bit
        // offsets in source and accumulator, and slices of one window
        // are disjoint, so OR-ing masked words copies exactly the
        // slice.
        const size_t firstWord = begin >> 6;
        const size_t lastWord = (end - 1) >> 6;
        for (size_t w = firstWord; w <= lastWord; ++w) {
            uint64_t mask = ~uint64_t(0);
            if (w == firstWord)
                mask &= ~uint64_t(0) << (begin & 63);
            if (w == lastWord && (end & 63) != 0)
                mask &= (uint64_t(1) << (end & 63)) - 1;
            st.window.words()[w] |= windowSyndrome.word(w) & mask;
        }
    }

    if (++st.round == options_.roundsPerWindow)
        enqueueReady(stream);
}

void
StreamDecoder::enqueueReady(size_t stream)
{
    StreamState& st = states_[stream];
    const size_t slot = pending_.size();
    ShotBatch& chunk = chunks_[slot / 64];
    const size_t shot = slot & 63;
    // Transpose the ready window into the detector-major slab chunk:
    // one flip per detection event (windows are sparse sub-threshold).
    const std::vector<uint64_t>& words = st.window.words();
    for (size_t w = 0; w < words.size(); ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
            const size_t d =
                (w << 6) +
                static_cast<size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            chunk.flipDetector(shot, d);
        }
    }
    PendingWindow p;
    p.stream = static_cast<uint32_t>(stream);
    p.windowIndex = st.windows++;
    p.readyUs = options_.nowUs();
    pending_.push_back(p);

    st.window.clear();
    st.round = 0;

    if (pending_.size() == slabCapacity())
        flush(0);
}

void
StreamDecoder::poll()
{
    if (options_.policy != FlushPolicy::Deadline || pending_.empty())
        return;
    if (options_.nowUs() - pending_.front().readyUs >= flushAfterUs_)
        flush(1);
}

void
StreamDecoder::finish()
{
    if (!pending_.empty())
        flush(2);
    for (StreamState& st : states_) {
        if (st.round != 0) {
            stats_.truncatedRounds += st.round;
            st.window.clear();
            st.round = 0;
        }
        // Window ordinals restart with the next run, so drivers that
        // reuse one StreamDecoder across groups keep a stable
        // windowIndex -> shot mapping per run (stats accumulate).
        st.windows = 0;
    }
}

void
StreamDecoder::flush(size_t cause)
{
    if (cause == 0)
        ++stats_.flushesFull;
    else if (cause == 1)
        ++stats_.flushesDeadline;
    else
        ++stats_.flushesFinal;
    stats_.slabSlots += slabCapacity();
    stats_.slabFilled += pending_.size();

    const size_t staged = (pending_.size() + 63) / 64;
    decoder_.beginStaged();
    for (size_t k = 0; k < staged; ++k) {
        // Only the last chunk is partial; shrinking numShots keeps
        // the single-wave layout valid (bits past the filled shots
        // are still zero from reset).
        chunks_[k].numShots =
            std::min<size_t>(64, pending_.size() - 64 * k);
        decoder_.stageBatch(chunks_[k]);
    }
    decoder_.flushStaged();
    const double commitUs = options_.nowUs();

    const std::vector<uint64_t>& predicted =
        decoder_.stagedPredictions();
    for (size_t i = 0; i < pending_.size(); ++i) {
        const PendingWindow& p = pending_[i];
        const size_t flat =
            decoder_.stagedBatchOffset(i / 64) + (i & 63);
        const double latency = std::max(0.0, commitUs - p.readyUs);
        stats_.latencySumUs += latency;
        stats_.latencyMaxUs = std::max(stats_.latencyMaxUs, latency);
        stats_.latency.record(latency);
        ++stats_.windows;
        if (stats_.deadlineUs > 0.0 && latency > stats_.deadlineUs)
            ++stats_.deadlineMisses;
        CommittedWindow c;
        c.stream = p.stream;
        c.windowIndex = p.windowIndex;
        c.prediction = predicted[flat];
        c.latencyUs = latency;
        committed_.push_back(c);
    }

    for (size_t k = 0; k < staged; ++k)
        chunks_[k].reset(numDetectors_, 64);
    pending_.clear();
}

} // namespace cyclone
