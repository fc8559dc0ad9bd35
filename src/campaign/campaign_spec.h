/**
 * @file
 * Declarative description of a Monte-Carlo campaign.
 *
 * A campaign is a batch of logical-error-rate experiment points — the
 * raw material of every LER figure in the paper (Figs. 5, 14, 15) —
 * executed together on one shared thread pool with shared
 * compile/DEM caches and per-task adaptive shot allocation. Each
 * TaskSpec names a code, an architecture (or an explicit round
 * latency), a physical error rate, a round count, and a stopping rule;
 * the engine resolves, builds, samples and decodes them concurrently.
 */

#ifndef CYCLONE_CAMPAIGN_CAMPAIGN_SPEC_H
#define CYCLONE_CAMPAIGN_CAMPAIGN_SPEC_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/architecture.h"
#include "decoder/bp_decoder.h"
#include "noise/noise_model.h"
#include "noise/pauli_twirl.h"
#include "qccd/swap_model.h"
#include "qec/css_code.h"
#include "qec/schedule.h"

namespace cyclone {

/**
 * When to stop sampling one task.
 *
 * Sampling proceeds in chunks of `chunkShots` shots, scheduled
 * `chunksPerWave` at a time; the rule is evaluated only at wave
 * boundaries on the cumulative counts, which keeps the shot total a
 * deterministic function of the seed alone (never of thread count or
 * completion order).
 *
 * With `targetRelErr == 0` the rule is a fixed budget: exactly
 * `maxShots` shots. With `targetRelErr > 0` the task additionally
 * stops at the first wave boundary where at least `minFailures`
 * failures have been seen and the Wilson 95% half-width is within
 * `targetRelErr * rate` — so easy (high-LER) points finish in a few
 * chunks while threshold-region points run to the cap.
 */
struct StoppingRule
{
    size_t chunkShots = 256;
    size_t chunksPerWave = 4;
    size_t maxShots = 100000;
    double targetRelErr = 0.0;
    size_t minFailures = 8;

    /**
     * Chunks pooled per decode job (cross-chunk syndrome staging, see
     * BpOsdDecoder::beginStaged): each worker samples `stagingChunks`
     * consecutive chunks of a wave and decodes their pooled distinct
     * syndromes together, which keeps the SIMD wave kernel's lanes
     * full when chunks are small. Groups partition the wave by
     * ascending chunk index, so results stay bit-identical at any
     * thread count — but a different value regroups the decoder's
     * duplicate-syndrome memo, so memoHits (never any prediction) can
     * change. A perf knob: deliberately excluded from the task
     * content hash, like the SIMD rung.
     * 1 = stage nothing (one chunk per decode job, the default).
     * Distributed runs cut each wave into shards of about a quarter
     * wave, rounded up to a multiple of this (effectiveShardChunks in
     * coordinator.h).
     */
    size_t stagingChunks = 1;
};

/**
 * Streaming-service options of one task (see decoder/stream_decoder.h).
 *
 * When enabled, the task's shots are driven through the streaming
 * front-end as `streams` concurrent per-round syndrome arrivals
 * instead of offline batches: windows commit once their final round
 * lands and ready windows from all streams multiplex into shared
 * decode slabs (capacity = 64 x stop.stagingChunks windows).
 * Predictions — and therefore the LER — are bit-identical to offline
 * decoding, so every field here is a serving knob excluded from the
 * task content hash; what changes is the latency/occupancy telemetry
 * reported in TaskResult::stream. A window's deadline, for miss
 * accounting, is one window period: rounds x the task's (compiled
 * or explicit) round latency. The task runs on the machine's clock:
 * round tick t of a staging group falls at t x the round latency and
 * decoding takes none of it, so latencies and misses are machine us,
 * and deadline flushes, like every counter, depend on the seed alone.
 * Streaming tasks currently run in-process only (the spool
 * coordinator rejects them).
 */
struct StreamSpec
{
    bool enabled = false;

    /** Concurrent logical-qubit streams. */
    size_t streams = 8;

    /** false = flush on full slab only; true = also flush once the
     *  oldest ready window has waited half its deadline. */
    bool deadlineFlush = false;
};

/** One experiment point of a campaign. */
struct TaskSpec
{
    /** Label in results ("" = auto "task<N>"). */
    std::string id;

    /**
     * Catalog code name ("bb72", "hgp225", ... or "surface<d>").
     * Ignored when `code` is set directly.
     */
    std::string codeName;

    /** Pre-resolved code (lets callers bypass the catalog). */
    std::shared_ptr<const CssCode> code;

    /** Pre-resolved schedule (default: x-then-z for the code). */
    std::shared_ptr<const SyndromeSchedule> schedule;

    /** Architecture compiled for the round latency. */
    Architecture architecture = Architecture::Cyclone;

    /**
     * When true the round latency is the compiled makespan of one
     * syndrome round under `architecture` (cached across tasks);
     * when false `roundLatencyUs` is used as-is.
     */
    bool compileLatency = true;

    /** Explicit round latency in us (compileLatency == false). */
    double roundLatencyUs = 0.0;

    /**
     * Multiplier applied to the (compiled or explicit) latency.
     * Fig. 5's speedup sweep uses 1/speedup here.
     */
    double latencyScale = 1.0;

    /**
     * Idle-noise mode. PerQubitSchedule derives one twirl per data
     * qubit from the compiled TimedSchedule IR (requires
     * compileLatency, unless `perQubitIdle` supplies the twirls
     * directly); UniformLatency applies one makespan-derived channel
     * to every data qubit.
     */
    IdleNoiseMode idleNoise = IdleNoiseMode::UniformLatency;

    /** Pre-resolved per-data-qubit twirls (bypasses the IR). */
    std::vector<PauliTwirl> perQubitIdle;

    /** Swap primitive used by the compiled architecture (Fig. 21). */
    SwapKind swap = SwapKind::GateSwap;

    /** Trap capacity of grid devices (Fig. 13 sweeps change this). */
    size_t gridCapacity = 5;

    /** Physical error rate p. */
    double physicalError = 1e-3;

    /** Syndrome rounds (0 = the code's nominal distance). */
    size_t rounds = 0;

    /** false = Z memory, true = X memory. */
    bool xBasis = false;

    /** Decoder configuration. */
    BpOptions bp;

    /** Shot allocation rule. */
    StoppingRule stop;

    /** Streaming decode service (off = offline batch decoding). */
    StreamSpec stream;

    /**
     * Per-task seed salt. The effective task seed mixes the campaign
     * seed, the task index, and this value, so identical specs run
     * identically and editing one task never reseeds its neighbours.
     */
    uint64_t seed = 0;
};

/**
 * A batch of tasks executed on one pool with shared caches. Every file
 * a campaign persists goes through writeFileAtomic (atomic_file.h),
 * spool I/O retries follow the fixed RetryPolicy (retry_policy.h), and
 * a fault plan is armed through CYCLONE_FAULT_PLAN or installFaultPlan
 * (fault_plan.h); the spec sets none of them.
 */
struct CampaignSpec
{
    std::string name = "campaign";
    uint64_t seed = 0x5eed;

    /** Worker threads (0 = hardware concurrency). */
    size_t threads = 0;

    /**
     * Spool directory for distributed execution ("" = run in-process
     * on the local pool). When set, campaign_runner coordinates
     * through the spool instead of sampling locally; any shared
     * directory (local disk, NFS) works — the claim protocol is
     * rename-based and needs no sockets. See coordinator.h.
     */
    std::string spool;

    /**
     * Local worker processes the campaign_runner coordinator forks
     * alongside itself (0 = none; external workers attach with
     * `campaign_runner --worker --spool DIR`). Only meaningful with
     * `spool` set. Results are bit-identical at any worker count.
     */
    size_t workers = 0;

    /**
     * Shard lease in seconds for distributed runs: a claimed shard
     * whose worker stops heartbeating for this long is reclaimed and
     * re-published, so a killed worker's shards are re-executed
     * rather than lost.
     */
    double leaseSeconds = 30.0;

    /**
     * Poison-shard tolerance: a shard whose claim expires and is
     * reclaimed this many times is assumed to kill whoever runs it
     * (a poison shard). The coordinator quarantines it (spool
     * quarantine/) and finalizes its task with an error instead of
     * livelocking the fleet on it forever.
     */
    size_t maxClaimReclaims = 5;

    std::vector<TaskSpec> tasks;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_CAMPAIGN_SPEC_H
