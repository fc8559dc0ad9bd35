/**
 * @file
 * Chunked, deterministic, adaptive shot allocation for one task.
 *
 * Sampling is decomposed into fixed-size chunks whose RNG streams are
 * derived from (task seed, chunk index) alone. Chunks are scheduled in
 * waves; the stopping rule is evaluated only once a whole wave has
 * been absorbed. Because neither the chunk boundaries nor the RNG
 * streams nor the decision points depend on thread count or completion
 * order, the estimate for a given seed is bit-identical whether the
 * wave runs on one worker or sixteen.
 */

#ifndef CYCLONE_CAMPAIGN_ADAPTIVE_SAMPLER_H
#define CYCLONE_CAMPAIGN_ADAPTIVE_SAMPLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "campaign/campaign_spec.h"
#include "common/rng.h"
#include "common/stats.h"
#include "decoder/bposd_decoder.h"
#include "decoder/stream_decoder.h"
#include "dem/dem.h"
#include "dem/dem_sampler.h"

namespace cyclone {

/** One chunk of shots to execute. */
struct ChunkPlan
{
    size_t index = 0;  ///< Global chunk index within the task.
    size_t shots = 0;  ///< Shots in this chunk (last chunk may be short).
    uint64_t seed = 0; ///< Seed of the chunk's private RNG stream.
};

/** Counts produced by executing one chunk. */
struct ChunkOutcome
{
    size_t shots = 0;
    size_t failures = 0;
};

/**
 * Sample `count` chunks, each from its own RNG stream in the order
 * the scalar sampler consumes it, and decode them as one staged
 * group: their syndromes pool through the decoder's staged interface
 * (beginStaged / stageBatch / flushStaged) so the wave kernel sees
 * full lane groups even when single chunks are small. Predictions —
 * and therefore the summed counts — are bit-identical to per-shot
 * decoding, so they depend on the chunk seeds alone, however the
 * chunks are grouped; only decoder grouping statistics (memoHits,
 * waveGroups, occupancy) reflect the pooling. Callers must pass
 * plans in ascending chunk-index order for those statistics to be
 * schedule-independent. `decoder` carries per-worker BP/OSD state
 * and accumulates its statistics across groups; `batches` is a
 * reusable per-worker buffer pool, grown to `count` entries.
 */
ChunkOutcome runChunkGroup(const DetectorErrorModel& dem,
                           const ChunkPlan* plans, size_t count,
                           BpOsdDecoder& decoder,
                           std::vector<ShotBatch>& batches);

/**
 * Streaming-mode equivalent of runChunkGroup: sample the same chunks
 * from the same RNG streams, then drive the shots through `stream` as
 * concurrent per-round arrivals instead of offline batches. Shot
 * `i` (flat across the group, in plan order) becomes window `i / S`
 * of stream `i % S`; all streams advance round-synchronously, so the
 * slab multiplexes ready windows from every stream in a fixed,
 * thread-count-independent order. Because a distinct syndrome's
 * decode is a pure function of that syndrome, the predictions — and
 * therefore the returned counts — are bit-identical to
 * runChunkGroup; only grouping statistics and the streaming latency
 * stats differ. `stream` must wrap a decoder built on `dem`; its
 * committed() buffer is consumed and cleared.
 */
ChunkOutcome runChunkGroupStreamed(const DetectorErrorModel& dem,
                                   const ChunkPlan* plans, size_t count,
                                   StreamDecoder& stream,
                                   std::vector<ShotBatch>& batches);

/** Per-task accumulator and stopping-rule evaluator. */
class AdaptiveSampler
{
  public:
    AdaptiveSampler(StoppingRule rule, uint64_t taskSeed);

    /**
     * Plan the next wave of chunks, or an empty vector when the task
     * is finished. Must only be called when no planned chunk is
     * outstanding (the engine calls it at wave boundaries).
     */
    std::vector<ChunkPlan> nextWave();

    /** Fold one executed chunk's counts in (order-independent). */
    void absorb(const ChunkOutcome& outcome);

    /** Whether the stopping rule has fired. */
    bool done() const { return done_; }

    /** True when the relative-error target fired before the cap. */
    bool stoppedEarly() const { return stoppedEarly_; }

    size_t shots() const { return shots_; }
    size_t failures() const { return failures_; }
    size_t chunksPlanned() const { return nextChunk_; }

  private:
    void evaluateStop();

    StoppingRule rule_;
    uint64_t taskSeed_ = 0;
    size_t nextChunk_ = 0;
    size_t plannedShots_ = 0;
    size_t shots_ = 0;
    size_t failures_ = 0;
    bool done_ = false;
    bool stoppedEarly_ = false;
};

/** Derive the RNG seed of chunk `index` of a task. */
uint64_t chunkSeed(uint64_t taskSeed, size_t index);

/**
 * Chunk `index` of a task under `rule`: `chunkShots` shots (0 means
 * the StoppingRule default) up to `maxShots`, so the last chunk may be
 * short and any chunk past the budget has zero shots, seeded by
 * chunkSeed. The one plan formula: AdaptiveSampler::nextWave plans
 * its waves with it, and spool workers rebuild a shard's chunks from
 * its index range with it.
 */
ChunkPlan planChunk(const StoppingRule& rule, uint64_t taskSeed,
                    size_t index);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_ADAPTIVE_SAMPLER_H
