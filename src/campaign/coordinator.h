/**
 * @file
 * Distributed campaign execution: the spool executor of the campaign
 * driver, and the worker loop, over a filesystem spool.
 *
 * The coordinator runs the same driver as an in-process campaign
 * (campaign_driver.h) over the spool executor: it builds (and
 * publishes to the spool's shared artifact store) every compile
 * result and DEM exactly once, then drives each task's
 * AdaptiveSampler wave by wave — but instead of decoding locally it
 * publishes every contiguous chunk range of a wave as a shard, and
 * merges the result records workers post back. Stopping decisions
 * happen at the same wave boundaries on the same cumulative counts as
 * an in-process run, and chunk RNG streams depend only on (task seed,
 * chunk index), so merged results are bit-identical to a
 * single-process run at any worker count — including zero external
 * workers plus N forked local ones.
 *
 * Workers are stateless: they re-parse the spool's spec text,
 * re-resolve task identities (verifying content hashes against each
 * claimed shard), pull artifacts from the shared store (the
 * coordinator pre-published them, so workers never compile), execute
 * the shard's chunks through the same staged decode pipeline on a
 * local thread pool, and post a record. A worker that dies mid-shard
 * simply stops heartbeating; the coordinator reclaims the shard after
 * the lease expires and another worker re-executes it.
 *
 * Failover: the coordinator role itself is leased (spool
 * coord.lease) and journaled (spool journal.txt, a checkpoint
 * document of the finalized tasks, rewritten atomically after every
 * finalize). If the coordinator dies at ANY point — before the spool
 * exists, mid-prebuild, mid-merge, between the last record and DONE —
 * any process can take over: `campaign_runner --coordinator-takeover`,
 * a fresh coordinator run of the same spec, or an idle worker with
 * `promote` set. The takeover waits out the stale lease, steals it (a
 * rename: exactly one winner), restores journaled tasks without
 * re-merging (through the driver's checkpoint restore), republishes
 * missing shards (publish skips anything open, claimed or recorded),
 * re-merges surviving records, and finalizes. Every step is
 * idempotent, so the merged result is bit-identical to an
 * uninterrupted run.
 */

#ifndef CYCLONE_CAMPAIGN_COORDINATOR_H
#define CYCLONE_CAMPAIGN_COORDINATOR_H

#include <cstddef>
#include <string>

#include "campaign/campaign.h"
#include "campaign/campaign_spec.h"
#include "campaign/spool.h"

namespace cyclone {

/**
 * Chunks per shard for a stopping rule: about a quarter wave, rounded
 * up to a multiple of `stagingChunks` (so worker-side staging groups
 * coincide exactly with a single-process run's).
 */
size_t effectiveShardChunks(const StoppingRule& rule);

/** Coordinator-role configuration. */
struct CoordinatorOptions
{
    /**
     * Let the coordinator claim and execute open shards itself when
     * a merge pass makes no progress (lazy local thread pool). Off
     * by default: the production topology forks dedicated workers
     * around the (thread-free) coordinator, and benchmarks gate on
     * that split. Takeover and promotion turn it on so a lone
     * surviving process can always finish a campaign.
     */
    bool selfExecute = false;
    /** Thread-pool size for self-executed shards (0 = hardware). */
    size_t threads = 0;
    /** Lease owner tag ("" = "pid<pid>"). */
    std::string owner;
};

/**
 * Run `spec` as the coordinator of the spool at `spec.spool`.
 * `specText` is the verbatim spec document, published into the spool
 * for workers to re-parse; it must parse to `spec`. Blocks until all
 * tasks complete (some worker must be draining the spool — see
 * campaign_runner's forked local workers — unless
 * `options.selfExecute` is set) and returns a result bit-identical
 * to an in-process run of the same spec.
 *
 * If the spool already has a live coordinator, waits for its lease
 * to go stale, then steals it — so pointing a second coordinator at
 * a crashed one's spool performs a failover takeover.
 *
 * @param resume checkpointed tasks to skip, as CampaignEngine::run
 * @param onTaskDone per-task completion hook
 */
CampaignResult
runDistributedCampaign(const CampaignSpec& spec,
                       const std::string& specText,
                       const CampaignCheckpoint* resume = nullptr,
                       const CampaignEngine::TaskCallback& onTaskDone =
                           nullptr,
                       const CoordinatorOptions& options = {});

/** Configuration of one worker process/loop. */
struct WorkerOptions
{
    /** Spool directory (required). */
    std::string spool;
    /** Local decode threads (0 = hardware concurrency). */
    size_t threads = 0;
    /** Label of the worker's record, workers/<id> ("" = "pid<pid>"). */
    std::string workerId;
    /** Seconds between idle polls of open/. */
    double pollSeconds = 0.05;
    /**
     * Promote this worker to coordinator if it is idle (nothing to
     * claim, spool not DONE) and the coordinator lease has been
     * stale for a full lease period — i.e. the coordinator died.
     * The promoted worker re-parses the spec and finishes the
     * campaign with selfExecute on, under the manifest's lease (the
     * one it has just waited out), whatever lease the spec text
     * sets.
     */
    bool promote = false;
};

/** What one worker loop did, and its health: the worker's spool
 *  record (workers/<id>), for cross-process accounting. */
struct WorkerReport
{
    /** "healthy", "degraded" (transient retries seen) or "done". */
    std::string state;
    size_t shardsRun = 0;
    size_t shots = 0;
    size_t failures = 0;
    /** Transient I/O failures absorbed by the spool retry policy. */
    size_t transientRetries = 0;
    /** 1 if this worker promoted itself to coordinator. */
    size_t promotions = 0;
    /** This process's artifact-cache activity (store hits vs local
     *  builds prove the fleet compiled each point exactly once). */
    CacheStats cache;
};

/** Text round-trip of a worker record (spool workers/<id>): one
 *  CRC-protected key=value record. */
std::string formatWorkerStats(const WorkerReport& report);
/** Throws CorruptRecordError on a bad checksum, std::runtime_error on
 *  malformed input. */
WorkerReport parseWorkerStats(const std::string& text);

/**
 * Run the worker loop against `opts.spool` until the coordinator's
 * DONE marker appears. Waits for the spool to be initialized first,
 * so workers may start before the coordinator. Rewrites its record
 * (spool workers/<id>: the report, state healthy/degraded/done,
 * degraded once transient retries occur) at start, after each shard
 * and at exit, and touches it while idle; the coordinator folds the
 * states into the final summary. Every write of the record is
 * advisory. Throws std::runtime_error on a spec/shard content-hash
 * mismatch (the spool holds a different campaign than the shard
 * expects).
 */
WorkerReport runSpoolWorker(const WorkerOptions& opts);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_COORDINATOR_H
