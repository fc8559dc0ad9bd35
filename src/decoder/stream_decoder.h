/**
 * @file
 * Streaming decode service: sliding windows over per-round detector
 * slices, multiplexed across many concurrent logical-qubit streams.
 *
 * A real QCCD memory controller never sees a finished Monte-Carlo
 * batch: every syndrome round each logical qubit emits one slice of
 * detector outcomes, and the decoder may only commit a correction for
 * a window once the later rounds that give the window its temporal
 * context have arrived. StreamDecoder models exactly that contract.
 * Each stream accumulates round slices into its current window; when
 * the final slice lands the window becomes *ready*: it is staged
 * straight into the decoder's open staged group
 * (BpOsdDecoder::stageSyndrome) and timestamped. The first ready
 * window after a flush opens that group, so the group is the slab:
 * ready windows from all streams pool there in arrival order, and a
 * flush (BpOsdDecoder::flushStaged) decodes them together, so
 * cross-stream batch formation feeds the SIMD wave kernel full lane
 * groups.
 *
 * When to flush is the explicit latency-vs-occupancy tradeoff:
 *  - FlushPolicy::FullWave waits until the slab holds
 *    64 x capacityChunks windows (maximum lane occupancy, worst
 *    commit latency), and
 *  - FlushPolicy::Deadline additionally flushes whenever the oldest
 *    ready window has waited `flushAfterUs` (bounded latency, partial
 *    slabs).
 *
 * Correctness is grouping-independent: the decode of a distinct
 * syndrome is a pure function of that syndrome (see
 * bposd_decoder.h), so however windows are interleaved, batched or
 * flushed, every committed correction is bit-identical to decoding
 * that stream's windows offline one by one. The fuzz harness
 * (tests/test_decoder_fuzz.cc) pins this across stream counts, ragged
 * stream lengths and both policies.
 *
 * Every commit is measured: enqueue(ready)→commit latency feeds a
 * log-spaced histogram with p50/p99/p999 extraction, deadline misses
 * are counted against `deadlineUs`, and slab occupancy records how
 * full the staged flushes ran. The campaign engine reports these per
 * task next to the round period of the compiled TimedSchedule.
 */

#ifndef CYCLONE_DECODER_STREAM_DECODER_H
#define CYCLONE_DECODER_STREAM_DECODER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/stat_fields.h"
#include "decoder/bposd_decoder.h"

namespace cyclone {

/** When the streaming front-end flushes ready windows into a slab. */
enum class FlushPolicy
{
    /** Only when the slab is full (64 x capacityChunks windows). */
    FullWave,
    /** Also when the oldest ready window has waited flushAfterUs. */
    Deadline,
};

/**
 * Fixed-layout log-spaced latency histogram (microseconds).
 * kBinsPerOctave bins per factor of two starting at kMinUs; the last
 * bin absorbs everything slower. Mergeable across workers by bin-wise
 * addition, so campaign tasks aggregate per-worker histograms exactly.
 */
struct LatencyHistogram
{
    static constexpr size_t kBins = 96;
    static constexpr size_t kBinsPerOctave = 4;
    static constexpr double kMinUs = 0.5;

    std::array<uint64_t, kBins> bins{};
    uint64_t count = 0;

    void record(double us);
    void merge(const LatencyHistogram& other);

    /**
     * Value at quantile q in [0,1], interpolated geometrically inside
     * the selected bin; 0 when empty. Bin resolution is ~19% (2^0.25),
     * which is plenty against a round period.
     */
    double quantileUs(double q) const;
};

/** Aggregate statistics of a streaming decode run (mergeable). */
struct StreamDecodeStats
{
    /** Windows committed (one correction each). */
    size_t windows = 0;
    /** Round slices pushed across all streams. */
    size_t roundsPushed = 0;
    /** Trailing round slices discarded in incomplete windows. */
    size_t truncatedRounds = 0;

    /** Staged flushes by cause. */
    size_t flushesFull = 0;
    size_t flushesDeadline = 0;
    size_t flushesFinal = 0;

    /** Window slots offered (flushes x slab capacity) and filled —
     *  the cross-stream slab occupancy of the staged decode calls. */
    size_t slabSlots = 0;
    size_t slabFilled = 0;

    /** Commits whose ready→commit latency exceeded deadlineUs. */
    size_t deadlineMisses = 0;
    /** Effective per-window commit deadline (0 = no accounting). */
    double deadlineUs = 0.0;

    double latencySumUs = 0.0;
    double latencyMaxUs = 0.0;
    LatencyHistogram latency;

    /**
     * Percentiles of the ready→commit latency. Filled by
     * computePercentiles() after all merging (or restored verbatim
     * from a checkpoint, whose histogram is not persisted).
     */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    /** Bin-wise / additive merge of another worker's stats. */
    void merge(const StreamDecodeStats& other);

    /** Recompute p50/p99/p999 from the merged histogram. */
    void computePercentiles();

    double
    slabOccupancy() const
    {
        return slabSlots > 0
            ? static_cast<double>(slabFilled) /
                static_cast<double>(slabSlots)
            : 0.0;
    }

    double
    meanLatencyUs() const
    {
        return windows > 0
            ? latencySumUs / static_cast<double>(windows)
            : 0.0;
    }

    double
    deadlineMissFraction() const
    {
        return windows > 0
            ? static_cast<double>(deadlineMisses) /
                static_cast<double>(windows)
            : 0.0;
    }

    /** The field table (stat_fields.h) of every scalar above; merge()
     *  adds the histogram, which has no scalar form. */
    static std::span<const StatField<StreamDecodeStats>> fields();
};

/** Configuration of a StreamDecoder. */
struct StreamDecoderOptions
{
    /** Concurrent logical-qubit streams. */
    size_t streams = 1;

    /** Round slices per window (the arrival granularity: the window's
     *  detector range is split into this many contiguous slices). */
    size_t roundsPerWindow = 1;

    FlushPolicy policy = FlushPolicy::FullWave;

    /**
     * Per-window ready→commit deadline in us; commits slower than
     * this count as deadline misses. 0 disables miss accounting.
     */
    double deadlineUs = 0.0;

    /**
     * Deadline-policy flush timeout: flush whenever the oldest ready
     * window has waited this long. 0 = deadlineUs / 2 (flush early
     * enough to leave the decode half the budget).
     */
    double flushAfterUs = 0.0;

    /** 64-shot chunks per slab: flush capacity = 64 x this. Matches
     *  StoppingRule::stagingChunks in campaign use. */
    size_t capacityChunks = 1;

    /**
     * Clock returning microseconds (monotonic). Defaults to
     * std::chrono::steady_clock; a campaign's streamed tasks and the
     * tests inject machine clocks, which make deadline flushes
     * deterministic.
     */
    std::function<double()> nowUs;
};

/** One committed window (its correction and how long it waited). */
struct CommittedWindow
{
    uint32_t stream = 0;
    /** Ordinal of the window within its stream (0-based). */
    uint64_t windowIndex = 0;
    /** Predicted observable flip mask — the correction. */
    uint64_t prediction = 0;
    /** Ready (final slice pushed) → commit latency, us. */
    double latencyUs = 0.0;
};

/**
 * The streaming front-end. Owns the window state machines and the
 * identity of every window in the slab; decodes through a
 * caller-owned BpOsdDecoder (a campaign group streams through its
 * worker's decoder, so streamed and offline runs share every decode
 * path and statistic).
 *
 * Driving protocol, per source round (in real arrival order):
 *   1. pushRound(stream, syndrome) for each stream that produced a
 *      slice this round;
 *   2. poll() once per round tick (deadline-policy flush check);
 *   3. drain committed() — commits appear after any flush.
 * At end of stream call finish(), which flushes the remaining ready
 * windows and discards (but counts) incomplete trailing windows.
 *
 * While any window is ready but uncommitted, the decoder's staged
 * group belongs to this stream, so the caller must leave the decoder
 * alone until finish(). A flush that holds more than 64 windows adds
 * nothing to BpOsdStats::stagedChunks, which counts batches, and a
 * window is not one.
 */
class StreamDecoder
{
  public:
    /**
     * @param decoder caller-owned staged decoder; must outlive this
     * @param numDetectors detectors per window (the DEM's count)
     * @param options streaming configuration (validated here)
     */
    StreamDecoder(BpOsdDecoder& decoder, size_t numDetectors,
                  StreamDecoderOptions options);

    /**
     * Push the next round slice of `stream`'s current window.
     * `windowSyndrome` is the full-window syndrome the source has
     * accumulated so far; only the bits of the current round's slice
     * [roundBegin(r), roundEnd(r)) are read. The final slice makes
     * the window ready (timestamped) and may trigger a full-slab
     * flush.
     */
    void pushRound(size_t stream, const BitVec& windowSyndrome);

    /** Deadline-policy flush check; call once per round tick. */
    void poll();

    /** Flush remaining ready windows and discard+count partial ones;
     *  the decoder is the caller's again. */
    void finish();

    /** Commits accumulated since the caller last cleared this. */
    std::vector<CommittedWindow>& committed() { return committed_; }

    /** First detector of round slice r. */
    size_t roundBegin(size_t r) const;
    /** One past the last detector of round slice r. */
    size_t roundEnd(size_t r) const;

    size_t streams() const { return options_.streams; }
    size_t roundsPerWindow() const { return options_.roundsPerWindow; }
    /** Window capacity of one slab (64 x capacityChunks). */
    size_t slabCapacity() const { return 64 * options_.capacityChunks; }
    /** Ready windows waiting in the slab under formation. */
    size_t readyWindows() const { return pending_.size(); }

    const StreamDecodeStats& stats() const { return stats_; }

  private:
    struct StreamState
    {
        BitVec window;       ///< Accumulated syndrome of the window.
        size_t round = 0;    ///< Next slice index expected.
        uint64_t windows = 0; ///< Windows completed so far.
    };

    struct PendingWindow
    {
        uint32_t stream = 0;
        uint64_t windowIndex = 0;
        double readyUs = 0.0;
    };

    void enqueueReady(size_t stream);
    void flush(size_t cause); // 0 = full, 1 = deadline, 2 = final

    BpOsdDecoder& decoder_;
    size_t numDetectors_ = 0;
    StreamDecoderOptions options_;
    double flushAfterUs_ = 0.0;

    std::vector<StreamState> states_;
    /** Identity of every window staged in the open group, in staging
     *  order (window i's prediction is stagedPredictions()[i]). */
    std::vector<PendingWindow> pending_;
    std::vector<CommittedWindow> committed_;
    StreamDecodeStats stats_;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_STREAM_DECODER_H
