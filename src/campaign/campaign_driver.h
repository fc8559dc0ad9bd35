/**
 * @file
 * The campaign driver and the executor interface it runs over
 * (internal to src/campaign).
 *
 * Every campaign runs through driveCampaign. The driver owns what a
 * campaign decides: task identities and result headers, restoring
 * tasks saved by a checkpoint or a spool journal, each task's
 * AdaptiveSampler waves cut into contiguous chunk ranges, the
 * absorption of every completed range, and each task's finalize. An
 * executor owns where the work runs: CampaignEngine's in-process
 * executor (campaign.cc) builds and decodes on a local pool, the
 * spool executor (coordinator.cc) prebuilds into the spool's artifact
 * store and hands each range to worker processes as a shard. Both
 * decode every staging group through runStagingGroup and report
 * through Completion, so the driver merges shots, failures, seconds
 * and decoder counters the same way for both, and fires the coord.*
 * fault milestones (fault_plan.h) for both.
 */

#ifndef CYCLONE_CAMPAIGN_CAMPAIGN_DRIVER_H
#define CYCLONE_CAMPAIGN_CAMPAIGN_DRIVER_H

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign.h"

namespace cyclone {

/** The driver's state of one task. */
struct TaskState
{
    ResolvedTask rt;
    std::optional<AdaptiveSampler> sampler;
    /** Ranges of the current wave not yet completed. */
    size_t outstanding = 0;
    double sampleSeconds = 0.0;
    bool finished = false;
};

/** One finished unit of executor work: a task's artifact build (its
 *  first completion) or one of its chunk ranges. */
struct Completion
{
    size_t task = 0;
    /** Ranges of the task's current wave this completion closes. */
    size_t ranges = 1;
    ChunkOutcome outcome{};
    /** Worker seconds spent sampling and decoding. */
    double seconds = 0.0;
    /** The decoder counters this work added. */
    BpOsdStats decoder{};
    /** The streaming stats it added (streamed tasks only). */
    std::optional<StreamDecodeStats> stream{};
    /** Non-empty when the build or the range failed. */
    std::string error{};
};

/** Run `fn` and return what it threw as an error message ("" when
 *  it returned). */
template <typename Fn>
std::string
errorOf(Fn&& fn)
{
    try {
        fn();
    } catch (const std::exception& ex) {
        return ex.what();
    } catch (...) {
        return "unknown error";
    }
    return {};
}

/**
 * A pool thread's decode state for one task: the decoder, its
 * reusable shot buffers (one per staged chunk) and, for a streamed
 * task, the streaming front-end around the same decoder.
 */
struct DecodeContext
{
    /** The task this context was built for. */
    size_t task;
    BpOsdDecoder decoder;
    std::vector<ShotBatch> batches;
    std::unique_ptr<StreamDecoder> stream;

    /** Needs the task's built artifacts. */
    DecodeContext(size_t task, const ResolvedTask& rt);
};

/**
 * One decode context per pool thread, sized to the pool and owned by
 * whoever owns the pool: the in-process executor for a run, a spool
 * worker or a self-executing coordinator for its whole life. Decoder
 * memory thus grows with threads, not with tasks x threads.
 */
using ThreadContexts = std::vector<std::unique_ptr<DecodeContext>>;

/**
 * Sample and decode plans[0..count) of `task` as one staging group
 * on the calling pool thread's slot of `contexts`. The slot's context
 * is reused while the thread stays on `task`; when the thread takes
 * up another task, the old context is freed before the new one is
 * built, so a thread never holds two. Nothing a context carries
 * outlives a group (the memo, the counters taken here, the streaming
 * windows finish() drains), so a rebuilt context decodes exactly as
 * a reused one. Returns the group's completion: its outcome, the
 * seconds it took, the decoder and streaming counters it added, and
 * what it threw. Both executors run every staging group through
 * here.
 */
Completion runStagingGroup(size_t task, const ResolvedTask& rt,
                           ThreadContexts& contexts,
                           const ChunkPlan* plans, size_t count);

/** Where a campaign's builds and chunk ranges run. */
class CampaignExecutor
{
  public:
    CampaignExecutor() = default;
    CampaignExecutor(const CampaignExecutor&) = delete;
    CampaignExecutor& operator=(const CampaignExecutor&) = delete;
    virtual ~CampaignExecutor() = default;

    /** The driver's task table, set before any other call; it
     *  outlives the executor's work. */
    void bind(std::vector<TaskState>& tasks) { tasks_ = &tasks; }

    /** Tasks an earlier run already finalized in this executor's
     *  store (the spool journal), or null. */
    virtual const CampaignCheckpoint* journal() const { return nullptr; }

    /** Build the artifacts of `tasks`, each reporting one completion.
     *  Called once. */
    virtual void build(const std::vector<size_t>& tasks) = 0;

    /** Chunks per range for a task with stopping rule `rule`. */
    virtual size_t rangeChunks(const StoppingRule& rule) const = 0;

    /** Run one contiguous chunk range of `task`'s current wave. */
    virtual void submit(size_t task, std::vector<ChunkPlan> range) = 0;

    /** Block until the next completion. */
    virtual Completion next() = 0;

    /** A task of `result` was just finalized. */
    virtual void finalized(const CampaignResult& result) { (void)result; }

  protected:
    std::vector<TaskState>* tasks_ = nullptr;
};

/**
 * Run every task of `spec` to completion over `exec`: restore tasks
 * `resume` holds, build the rest, restore those the executor's
 * journal holds, and sample the others wave by wave. Stopping
 * decisions fall at wave boundaries on cumulative counts, and a
 * range's counts depend only on its chunks, so results are identical
 * over either executor at any thread or worker count. Fills
 * everything but the `cache` block and executor-specific `spool`
 * counters (it counts journal restores).
 */
CampaignResult driveCampaign(const CampaignSpec& spec,
                             CampaignExecutor& exec,
                             const CampaignCheckpoint* resume,
                             const CampaignEngine::TaskCallback& onTaskDone);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_CAMPAIGN_DRIVER_H
