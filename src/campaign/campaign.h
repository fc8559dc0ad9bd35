/**
 * @file
 * The campaign engine: adaptive Monte-Carlo orchestration of many
 * logical-error-rate experiments on one shared thread pool.
 *
 * The engine turns a declarative CampaignSpec into per-task LER
 * estimates. One driver (campaign_driver.h) runs every campaign, over
 * one of two executors: CampaignEngine's runs every stage as pool
 * jobs, the spool's (coordinator.h) hands chunk ranges to worker
 * processes. In-process, architecture compiles and DEM builds are
 * deduplicated through the shared ArtifactCache, and sampling is
 * scheduled in deterministic chunk waves whose shot totals adapt per
 * task (see AdaptiveSampler). The caller's thread only coordinates,
 * so campaigns scale to every core the pool owns while remaining
 * bit-reproducible for a fixed seed at any thread count.
 */

#ifndef CYCLONE_CAMPAIGN_CAMPAIGN_H
#define CYCLONE_CAMPAIGN_CAMPAIGN_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/artifact_cache.h"
#include "campaign/campaign_spec.h"
#include "campaign/thread_pool.h"
#include "common/stat_fields.h"
#include "common/stats.h"
#include "decoder/bposd_decoder.h"
#include "decoder/stream_decoder.h"

namespace cyclone {

/** Outcome of one campaign task. */
struct TaskResult
{
    std::string id;
    std::string codeName;
    /** Architecture name, or "explicit" for a fixed-latency task. */
    std::string architecture;

    double physicalError = 0.0;
    size_t rounds = 0;
    double roundLatencyUs = 0.0;
    bool xBasis = false;

    /** Shot counts with normal-approximation stderr. */
    RateEstimate logicalErrorRate;
    /** Wilson 95% half-width of the estimate. */
    double wilson = 0.0;
    /** Per-round failure rate: 1 - (1 - LER)^(1/rounds). */
    double perRoundErrorRate = 0.0;

    size_t demDetectors = 0;
    size_t demMechanisms = 0;
    BpOsdStats decoder;

    /** True when the task ran through the streaming decode service. */
    bool streamed = false;
    /** Streaming latency/occupancy telemetry (zero when !streamed).
     *  Percentiles are finalized after merging worker histograms;
     *  checkpoint-restored tasks carry them verbatim. */
    StreamDecodeStats stream;

    /**
     * Compile-derived round profile, read from the TimedSchedule IR
     * (zero/empty for explicit-latency and checkpointed tasks).
     */
    double compileMakespanUs = 0.0;
    TimeBreakdown compileBreakdown;
    double compileParallelFraction = 0.0;
    size_t trapRoadblocks = 0;
    size_t junctionRoadblocks = 0;
    WaitHistogram roadblockWaits;

    size_t chunks = 0;
    bool stoppedEarly = false;
    bool fromCheckpoint = false;
    /** Summed worker time spent sampling+decoding, seconds. */
    double sampleSeconds = 0.0;

    /** Content hash of the task (checkpoint identity). */
    uint64_t contentHash = 0;

    /** Non-empty when the task failed to build or sample. */
    std::string error;

    /** Set the shot counts and what derives from them: the estimate,
     *  its Wilson half-width and (given `rounds`) the per-round rate. */
    void setCounts(size_t failures, size_t shots);
};

/** Completed tasks from a previous run, keyed by content hash. */
struct CampaignCheckpoint
{
    std::unordered_map<uint64_t, TaskResult> tasks;
};

/** Spool activity of a distributed run (all zero in-process). */
struct SpoolStats
{
    /** Shards written to the spool's open/ directory. */
    size_t shardsPublished = 0;
    /** Shard result records merged into task results. */
    size_t shardsMerged = 0;
    /** Expired leases returned to open/ (killed/stalled workers). */
    size_t shardsReclaimed = 0;
    /** Shards satisfied by records already in the spool (resume). */
    size_t recordsReused = 0;
    /** Shards quarantined after repeated reclaims (poison shards). */
    size_t shardsPoisoned = 0;
    /** Corrupt spool files (records, journal) quarantined. */
    size_t recordsQuarantined = 0;
    /** Transient I/O failures absorbed by the retry policy. */
    size_t transientRetries = 0;
    /** 1 if this run stole a dead coordinator's lease (failover). */
    size_t coordinatorTakeovers = 0;
    /** Tasks restored from a dead coordinator's journal. */
    size_t journalRestores = 0;
    /** Worker health at the end of the run (from each worker's
     *  record, workers/<id>). */
    size_t workersHealthy = 0;
    size_t workersDegraded = 0;
    size_t workersLost = 0;

    /** The field table (stat_fields.h). */
    static std::span<const StatField<SpoolStats>> fields();
};

/** Outcome of a whole campaign. */
struct CampaignResult
{
    std::string name;
    uint64_t seed = 0;
    std::vector<TaskResult> tasks;

    /** Cache activity during this run (delta, not lifetime). */
    CacheStats cache;

    /** Spool activity (distributed runs only). */
    SpoolStats spool;

    double wallSeconds = 0.0;

    /** Total Monte-Carlo shots across tasks (checkpointed included). */
    size_t totalShots() const;
};

/**
 * A task with its identity — and, after buildTaskArtifacts, its
 * compiled artifacts — resolved. This is the unit both executors
 * share: the in-process engine builds tasks on its pool, the spool
 * coordinator and every worker process resolve the same spec text
 * through resolveTaskIdentities and arrive at the same content
 * hashes, seeds and artifacts, which is what makes distributed
 * results bit-identical to local ones. `spec` points into the
 * CampaignSpec it was resolved from, which must stay alive.
 */
struct ResolvedTask
{
    const TaskSpec* spec = nullptr;
    std::shared_ptr<const CssCode> code;
    std::shared_ptr<const SyndromeSchedule> schedule;
    size_t rounds = 0;
    uint64_t codeHash = 0;
    uint64_t scheduleHash = 0;
    /** Mix of campaign seed, task index and the task's seed salt. */
    uint64_t taskSeed = 0;
    /** Checkpoint identity of the task. */
    uint64_t contentHash = 0;

    // Filled by buildTaskArtifacts.
    std::shared_ptr<const CompileResult> compiled;
    std::shared_ptr<const DetectorErrorModel> dem;
    double latencyUs = 0.0;
};

/**
 * Resolve codes, schedules, seeds and content hashes for every task
 * of `spec` (cheap, deterministic, no artifact builds). Throws on
 * unknown codes or structurally bad tasks, so bad specs fail before
 * any work launches.
 */
std::vector<ResolvedTask> resolveTaskIdentities(const CampaignSpec& spec);

/**
 * Build (or fetch from `cache`) the task's compile result and
 * detector error model, filling `task.compiled` / `task.dem` /
 * `task.latencyUs`. Safe to call concurrently for different tasks;
 * concurrent same-key builds dedupe inside the cache.
 */
void buildTaskArtifacts(ResolvedTask& task, ArtifactCache& cache);

/** Orchestrates campaigns over a shared pool and artifact cache. */
class CampaignEngine
{
  public:
    /** Called on the coordinating thread as each task completes. */
    using TaskCallback = std::function<void(const TaskResult&)>;

    /** Pool and cache must outlive the engine. */
    CampaignEngine(ThreadPool& pool, ArtifactCache& cache);

    /**
     * Execute every task of `spec` to completion.
     *
     * @param spec the campaign
     * @param resume previously completed tasks to skip (matched by
     *        content hash), e.g. loaded from a checkpoint file
     * @param onTaskDone per-task completion hook (progress printing,
     *        incremental checkpointing)
     *
     * Fires the coord.* milestones of fault_plan.h as a spool
     * coordinator does, so a crash injected after a finalize leaves
     * what onTaskDone saved to resume from.
     */
    CampaignResult run(const CampaignSpec& spec,
                       const CampaignCheckpoint* resume = nullptr,
                       const TaskCallback& onTaskDone = nullptr);

  private:
    ThreadPool& pool_;
    ArtifactCache& cache_;
};

/** One-call convenience: private pool (spec.threads) and cache. */
CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignCheckpoint* resume = nullptr,
                           const CampaignEngine::TaskCallback& onTaskDone =
                               nullptr);

/**
 * Resolve a campaign code name: any catalog::byName() name, plus
 * "surface<d>" for the distance-d surface code. Throws on unknown
 * names.
 */
CssCode resolveCampaignCode(const std::string& name);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_CAMPAIGN_H
