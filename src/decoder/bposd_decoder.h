/**
 * @file
 * The production decoder: belief propagation with OSD-0 fallback.
 *
 * BP alone frequently fails to converge on qLDPC detector graphs
 * (degenerate errors, trapping sets); whenever that happens the BP
 * posteriors seed an OSD-0 solve, which always returns a valid
 * correction. This mirrors the decoders the paper uses for both code
 * families (BP-OSD for BB codes, the QuITS decoder for HGP codes).
 *
 * The batched entry point decodeBatch() exploits the sub-threshold
 * structure of Monte-Carlo shots: whole 64-shot waves are tested for
 * detection events with one packed OR sweep (zero-syndrome shots skip
 * BP entirely), a per-batch memo decodes each distinct syndrome once
 * and replays the result — and its statistics — for duplicates, and
 * the surviving distinct syndromes are decoded L at a time by the
 * lane-parallel wave kernel (bp_wave_decoder.h) of whichever
 * SIMD-ladder rung runtime dispatch selected (decoder_backend.h; the
 * generic rung runs on every host), whose per-lane posteriors seed
 * OSD exactly as the scalar core would: each non-converged lane is
 * solved right after its wave by OsdDecoder::solve, the fast OSD
 * path. decode() runs the scalar core alone, one shot at a time: the
 * per-shot oracle the identity tests compare the pipeline against.
 *
 * decodeBatch() is itself a thin wrapper over the staged interface
 * (beginStaged / stageBatch / flushStaged), which lets a campaign
 * worker pool the non-trivial distinct syndromes of several
 * adaptive-sampler chunks before decoding, so small tail chunks stop
 * collapsing lane occupancy; stageSyndrome() stages one shot-major
 * syndrome, which is how the streaming front-end (stream_decoder.h)
 * pools ready windows. Staging is safe because the decode of a
 * distinct syndrome is a pure function of that syndrome — regrouping
 * lanes can change neither any outcome nor any per-shot statistic —
 * and deterministic because callers stage chunks in plan
 * (chunk-index) order, never in completion order. Every fast path
 * reproduces what per-shot decoding would return bit-for-bit (BP is
 * deterministic per syndrome, lanes never interact, the fast OSD path
 * equals the scalar OSD exactly), so batch, staged and per-shot
 * decoding are bit-identical on every rung.
 */

#ifndef CYCLONE_DECODER_BPOSD_DECODER_H
#define CYCLONE_DECODER_BPOSD_DECODER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvec.h"
#include "common/stat_fields.h"
#include "decoder/bp_decoder.h"
#include "decoder/bp_wave_decoder.h"
#include "decoder/decoder_backend.h"
#include "decoder/osd.h"
#include "dem/shot_batch.h"

namespace cyclone {

/** Aggregate decode statistics. */
struct BpOsdStats
{
    size_t decodes = 0;
    size_t bpConverged = 0;
    size_t osdInvocations = 0;
    size_t osdFailures = 0;

    /** Zero-syndrome shots resolved by the batch/scalar fast path
     *  (also counted in bpConverged: BP converges on them in 0
     *  iterations). */
    size_t trivialShots = 0;

    /** Duplicate-syndrome shots replayed from the per-batch memo.
     *  Replays re-apply the memoized outcome's statistics, so every
     *  other counter matches what per-shot decoding would report. */
    size_t memoHits = 0;

    /** Total BP iterations across all decodes (memo replays included,
     *  trivial shots contribute zero). */
    size_t bpIterations = 0;

    /** Wave-kernel invocations of the batched decode path. */
    size_t waveGroups = 0;

    /** Lane slots offered across those invocations (groups x width). */
    size_t waveLaneSlots = 0;

    /** Lane slots that carried a real distinct syndrome. */
    size_t waveLanesFilled = 0;

    /**
     * OSD eliminations of the batched path: one per non-converged
     * distinct syndrome. Structural like waveGroups — counts work
     * done, not per-shot outcomes, so memo replays do not scale it.
     */
    size_t osdBatchGroups = 0;

    /** Always 0, and not in fields(): only the benchmark still reads
     *  it. Drop it at the next benchmark change. */
    size_t osdSharedPivots = 0;

    /** Batches that joined a staged pool already holding at least one
     *  earlier batch (plain decodeBatch and stageSyndrome contribute
     *  zero; a staged group of G chunks contributes G - 1).
     *  Structural, like waveGroups. */
    size_t stagedChunks = 0;

    /** SIMD-ladder backend the decoder dispatched to ("generic",
     *  "avx2", "avx512"). */
    std::string backend;

    /** Fraction of decodes resolved by the zero-syndrome fast path. */
    double trivialFraction() const;

    /** Fraction of decodes served from the duplicate-syndrome memo. */
    double memoHitRate() const;

    /** Mean BP iterations over non-trivial decodes. */
    double meanBpIterations() const;

    /** Mean filled fraction of wave-kernel lanes (0 when unused). */
    double waveLaneOccupancy() const;

    /** The field table (stat_fields.h): every counter above, the
     *  backend, then the derived ratios. */
    static std::span<const StatField<BpOsdStats>> fields();
};

/** BP + OSD-0 decoder over a detector error model. */
class BpOsdDecoder
{
  public:
    /**
     * @param dem detector error model; must outlive the decoder
     * @param options BP configuration. The batch path's kernel
     *        backend is resolved here, once (see
     *        selectDecoderBackend).
     */
    explicit BpOsdDecoder(const DetectorErrorModel& dem,
                          BpOptions options = {});

    /** Decode one shot (thin wrapper over the scalar decode core). */
    uint64_t decode(const BitVec& syndrome);

    /**
     * Decode a packed batch: zero-syndrome fast path, per-batch
     * duplicate-syndrome memo, lane-parallel BP over the surviving
     * distinct syndromes. Bit-identical to calling decode() on every
     * unpacked shot, at a fraction of the cost. Equivalent to
     * beginStaged(); stageBatch(batch); flushStaged().
     */
    void decodeBatch(const ShotBatch& batch,
                     std::vector<uint64_t>& predicted);

    // ------------------------------------------------------------------
    // Staged decoding: pool the distinct syndromes of several batches
    // or single syndromes into one lane pool before decoding. Callers
    // must stage in a deterministic order (the campaign stages by
    // ascending chunk index) — the memo, and therefore memoHits, is
    // scoped to the staged group.
    // ------------------------------------------------------------------

    /** Open a staged group (resets the pool and the memo). */
    void beginStaged();

    /**
     * Add one batch's shots to the open staged group. All batches of
     * a group must share the DEM's detector count; the batch's packed
     * words are copied, so the caller may reuse it — but observables
     * comparison happens on the caller's side after flushStaged().
     */
    void stageBatch(const ShotBatch& batch);

    /**
     * Add one shot-major syndrome (the DEM's detector count) to the
     * open staged group as one more shot: a zero syndrome counts as
     * trivial, any other joins the group's memo as stageBatch's shots
     * do. Its prediction is stagedPredictions()[i], where i is the
     * number of shots staged before it.
     */
    void stageSyndrome(const BitVec& syndrome);

    /**
     * Decode every staged distinct syndrome (full L-wide weight-
     * sorted wave groups over the whole pool, OSD on each
     * non-converged lane right after its wave) and replay outcomes
     * onto every staged shot. Results are then readable via
     * stagedPredictions()/stagedBatchOffset().
     */
    void flushStaged();

    /** Flat predictions of the last flushed group, in staging order. */
    const std::vector<uint64_t>&
    stagedPredictions() const
    {
        return stagedPredicted_;
    }

    /** Offset of staged batch k's first shot in stagedPredictions(). */
    size_t
    stagedBatchOffset(size_t k) const
    {
        return stagedOffsets_[k];
    }

    const BpOsdStats& stats() const { return stats_; }

    /** Hand over the statistics gathered since construction or the
     *  last call, and restart them from zero (the backend name stays):
     *  what one job of a reused decoder added. */
    BpOsdStats takeStats();

    /** Lane width of the batched wave kernel. */
    size_t waveLaneWidth() const { return backend_->kernels()->lanes; }

    /** Name of the dispatched SIMD-ladder backend. */
    const char* backendName() const { return backend_->name; }

  private:
    /** What one full BP(+OSD) solve did, for stats and memo replay. */
    struct DecodeOutcome
    {
        uint64_t observables = 0;
        uint32_t iterations = 0;
        bool converged = false;
        bool osdFailed = false;
    };

    /** One memoized distinct syndrome within the staged group. */
    struct MemoEntry
    {
        BitVec syndrome;
        size_t weight = 0; ///< syndrome.popcount(), cached for sorting.
        DecodeOutcome outcome;
        std::vector<uint32_t> shots; ///< Staged shot ids (pool-flat).
    };

    /** Pool staged shot `shot`'s non-zero syndrome under its memo
     *  entry, opening the entry if the group has not seen it. */
    void stageDistinct(const BitVec& syndrome, uint32_t shot);
    DecodeOutcome decodeCore(const BitVec& syndrome);
    void applyOutcomeStats(const DecodeOutcome& outcome);
    uint64_t observablesOf(const BitVec& errors) const;
    uint64_t observablesOf(const std::vector<uint8_t>& errors) const;

    const DetectorErrorModel& dem_;
    std::shared_ptr<const BpGraph> graph_;
    BpOptions options_;
    const DecoderBackend* backend_ = nullptr;
    BpDecoder bp_;
    /** Lazily built on the first flush (the wave state is numEdges x
     *  L floats — per-shot-only users never pay for it). */
    std::unique_ptr<BpWaveDecoder> wave_;
    OsdDecoder osd_;
    BpOsdStats stats_;
    std::vector<uint8_t> errorScratch_;
    std::vector<float> posteriorScratch_;
    std::vector<uint32_t> osdFlips_;
    BitVec hardScratch_;

    // Staged-pool state, reused across groups.
    bool stagedOpen_ = false;
    size_t stagedShots_ = 0;
    std::vector<size_t> stagedOffsets_;
    std::vector<uint64_t> stagedPredicted_;
    BitVec syndromeScratch_;
    std::vector<uint64_t> waveScratch_;
    std::vector<MemoEntry> memoEntries_;
    std::vector<uint32_t> laneOrder_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> memoIndex_;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_BPOSD_DECODER_H
