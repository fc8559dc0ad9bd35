#include "campaign/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign_driver.h"
#include "campaign/campaign_io.h"
#include "campaign/fault_plan.h"
#include "campaign/thread_pool.h"
#include "common/stats.h"

namespace cyclone {

namespace {

constexpr const char* kWorkerStatsMagic = "cyclone-worker-stats v2";

const StatField<WorkerReport> kWorkerReportFields[] = {
    {"state", &WorkerReport::state},
    {"shards", &WorkerReport::shardsRun},
    {"shots", &WorkerReport::shots},
    {"failures", &WorkerReport::failures},
    {"retries", &WorkerReport::transientRetries},
    {"promotions", &WorkerReport::promotions},
};

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/**
 * Execute one claimed shard on `pool` and publish its record —
 * the one shard-execution path, shared by worker loops and
 * self-executing coordinators so both produce byte-identical
 * records. Decodes on `contexts`, the pool's per-thread contexts,
 * which the caller keeps across shards. Heartbeats the claim (and
 * `extraHeartbeat`, e.g. the coordinator lease) while the pool
 * decodes.
 */
ShardRecord
executeShardChunks(Spool& spool, const std::string& id,
                   const ShardDescriptor& d, const ResolvedTask& rt,
                   ThreadPool& pool, ThreadContexts& contexts,
                   double leaseSeconds,
                   const std::function<void()>& extraHeartbeat)
{
    const StoppingRule& rule = rt.spec->stop;
    const size_t staging = std::max<size_t>(1, rule.stagingChunks);

    // Rebuild the shard's exact ChunkPlans from its chunk range, by
    // the formula the coordinator's sampler planned the wave with.
    std::vector<ChunkPlan> plans(d.numChunks);
    for (size_t k = 0; k < d.numChunks; ++k)
        plans[k] = planChunk(rule, d.taskSeed, d.firstChunk + k);

    ShardRecord rec;
    rec.task = d.task;
    rec.shard = d.shard;
    rec.contentHash = d.contentHash;
    std::string error;
    std::mutex mutex; // guards rec and error
    std::atomic<size_t> pending{0};

    for (size_t g = 0; g < plans.size(); g += staging) {
        const size_t count = std::min(staging, plans.size() - g);
        pending.fetch_add(1);
        pool.submit([&, g, count] {
            Completion c = runStagingGroup(d.task, rt, contexts,
                                           plans.data() + g, count);
            {
                std::lock_guard<std::mutex> lock(mutex);
                rec.shots += c.outcome.shots;
                rec.failures += c.outcome.failures;
                rec.seconds += c.seconds;
                mergeStats(rec.decoder, c.decoder);
                if (error.empty())
                    error = std::move(c.error);
            }
            // Last, outside the lock: once pending reaches 0 the caller
            // returns and destroys the mutex and everything else here.
            pending.fetch_sub(1);
        });
    }

    // Heartbeat the claim while the pool decodes, so a healthy
    // worker's lease never expires mid-shard.
    while (pending.load() > 0) {
        spool.heartbeat(id);
        if (extraHeartbeat)
            extraHeartbeat();
        sleepSeconds(std::min(0.05, leaseSeconds / 8.0));
    }
    if (!error.empty())
        throw std::runtime_error(error);
    spool.completeShard(id, rec);
    return rec;
}

/** Task index encoded in a shard id ("t0007-s00012" -> 7), or
 *  SIZE_MAX if the id is not of that shape. */
size_t
taskIndexOfShardId(const std::string& id)
{
    unsigned long task = 0;
    if (std::sscanf(id.c_str(), "t%lu-", &task) != 1)
        return static_cast<size_t>(-1);
    return static_cast<size_t>(task);
}

/**
 * The spool executor: the coordinator of a distributed campaign. It
 * holds the coordinator lease, prebuilds every artifact into the
 * spool's store, publishes each chunk range as a shard and turns the
 * records workers post back into completions. While it waits it
 * sweeps expired claims, watches worker health and, with selfExecute,
 * runs open shards itself.
 */
class SpoolExecutor final : public CampaignExecutor
{
  public:
    SpoolExecutor(const CampaignSpec& spec, const std::string& specText,
                  const CoordinatorOptions& options);

    const CampaignCheckpoint* journal() const override { return &journal_; }
    void build(const std::vector<size_t>& tasks) override;

    size_t
    rangeChunks(const StoppingRule& rule) const override
    {
        return effectiveShardChunks(rule);
    }

    void submit(size_t task, std::vector<ChunkPlan> range) override;
    Completion next() override;
    void finalized(const CampaignResult& result) override;

    /** End the campaign: DONE marker, worker health, spool and cache
     *  counters into `result`, result.json, lease release. */
    void finish(CampaignResult& result);

  private:
    /** One coordinator pass over the spool; queues what it merged. */
    void pass();

    const CampaignSpec& spec_;
    const CoordinatorOptions options_;
    const std::string owner_;
    const std::chrono::steady_clock::time_point t0_;
    Spool spool_;
    ArtifactCache cache_;
    SpoolStats stats_;
    /** The tasks a dead predecessor finalized (journal.txt). */
    CampaignCheckpoint journal_;
    /** Next shard ordinal of each task. */
    std::vector<size_t> nextShard_;
    /** Published shards awaiting their records, in id = (task, shard)
     *  order. Their descriptors are kept so a shard whose record was
     *  quarantined can be republished even if every on-disk copy of
     *  its descriptor is gone. */
    std::map<std::string, ShardDescriptor> pending_;
    std::deque<Completion> ready_;
    std::unique_ptr<ThreadPool> selfPool_;
    /** selfPool_'s decode contexts, kept across the shards it runs. */
    ThreadContexts selfContexts_;
};

SpoolExecutor::SpoolExecutor(const CampaignSpec& spec,
                             const std::string& specText,
                             const CoordinatorOptions& options)
    : spec_(spec), options_(options),
      owner_(!options.owner.empty()
                 ? options.owner
                 : "pid" + std::to_string(::getpid())),
      t0_(std::chrono::steady_clock::now()), spool_(spec.spool)
{
    SpoolManifest manifest;
    manifest.name = spec.name;
    manifest.seed = spec.seed;
    manifest.leaseSeconds = spec.leaseSeconds;
    spool_.initialize(manifest, specText);

    // Become THE coordinator: create the lease, or wait out a live
    // one and steal it once stale. A fresh lease is heartbeated by
    // its owner, so the steal only ever fires on a dead coordinator
    // (monotonic age: a wall-clock step cannot fake staleness).
    while (!spool_.acquireCoordinatorLease(owner_)) {
        const double age = spool_.coordinatorLeaseAge();
        if (age < 0.0)
            continue; // lease vanished; retry the acquire
        if (age > spec.leaseSeconds) {
            if (spool_.stealCoordinatorLease(owner_)) {
                ++stats_.coordinatorTakeovers;
                break;
            }
            continue; // another stealer won; wait on its lease
        }
        sleepSeconds(std::min(0.05, spec.leaseSeconds / 8.0));
    }
    faultMilestone("coord.lease.acquired");
    cache_.attachStore(spool_.cacheDir());

    // A dead predecessor's journal: the checkpoint document of the
    // tasks it finalized, restored without re-merging a record.
    std::string text;
    if (spool_.readJournal(text)) {
        try {
            journal_ = parseCheckpoint(text);
        } catch (const std::exception&) {
            // Torn (the predecessor died mid-commit) or of an older
            // format: quarantine it and fall back to re-merging from
            // records, which is merely slower.
            spool_.quarantineFile("journal.txt");
            ++stats_.recordsQuarantined;
        }
    }
}

void
SpoolExecutor::build(const std::vector<size_t>& tasks)
{
    nextShard_.assign(tasks_->size(), 0);
    // Sequential and thread-free (callers fork worker processes around
    // the coordinator; a live pool would make that unsafe). Every
    // compile and DEM publishes to the spool store before any shard
    // exists, so workers always store-hit and the fleet builds each
    // distinct artifact once.
    for (const size_t i : tasks) {
        spool_.heartbeatCoordinator();
        ready_.push_back({.task = i, .error = errorOf([&] {
                              buildTaskArtifacts((*tasks_)[i].rt, cache_);
                          })});
    }
    faultMilestone("coord.prebuilt");
}

void
SpoolExecutor::submit(size_t task, std::vector<ChunkPlan> range)
{
    const ResolvedTask& rt = (*tasks_)[task].rt;
    ShardDescriptor d;
    d.task = task;
    d.shard = nextShard_[task]++;
    d.firstChunk = range.front().index;
    d.numChunks = range.size();
    d.contentHash = rt.contentHash;
    d.taskSeed = rt.taskSeed;
    const std::string id = shardId(d.task, d.shard);
    if (spool_.publishShard(d)) {
        ++stats_.shardsPublished;
    } else if (spool_.hasRecord(id)) {
        // A previous coordinator run already collected this shard;
        // the merge scan absorbs it directly.
        ++stats_.recordsReused;
    }
    pending_.emplace(id, d);
}

Completion
SpoolExecutor::next()
{
    while (ready_.empty())
        pass();
    Completion c = std::move(ready_.front());
    ready_.pop_front();
    if (!c.error.empty()) {
        // A failed shard fails its task: drop the rest of its wave, so
        // the driver finalizes it now instead of waiting on shards
        // nobody will run.
        c.ranges = std::erase_if(pending_, [&](const auto& shard) {
            return shard.second.task == c.task;
        });
    }
    return c;
}

void
SpoolExecutor::pass()
{
    spool_.heartbeatCoordinator();
    bool progress = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
        const std::string& id = it->first;
        const ShardDescriptor& d = it->second;
        if (!spool_.hasRecord(id)) {
            ++it;
            continue;
        }
        progress = true;
        ShardRecord rec;
        try {
            rec = spool_.readRecord(id);
        } catch (const CorruptRecordError&) {
            // Torn or rotted record: quarantine it and republish our
            // descriptor, so the shard is executed again. (If the
            // claim is still in claimed/, the lease sweep below
            // recycles it.)
            spool_.quarantineRecord(id);
            ++stats_.recordsQuarantined;
            if (spool_.publishShard(d))
                ++stats_.shardsPublished;
            ++it;
            continue;
        }
        if (rec.contentHash != d.contentHash)
            throw std::runtime_error(
                "spool record " + id +
                " does not match this campaign's task (content hash "
                "mismatch)");
        ready_.push_back({.task = d.task,
                          .outcome = {rec.shots, rec.failures},
                          .seconds = rec.seconds,
                          .decoder = std::move(rec.decoder)});
        ++stats_.shardsMerged;
        it = pending_.erase(it);
    }

    // Lease sweep: claims whose heartbeat went stale go back to
    // open/ so surviving workers re-execute them. Records are
    // deterministic, so a worker that was merely slow (not dead)
    // racing its reclaimed twin is harmless. The per-shard reclaim
    // counter persists in the spool, so a shard that keeps killing
    // workers is caught even across coordinator failovers; its task
    // then fails instead of livelocking the fleet.
    for (const std::string& id : spool_.claimedShards()) {
        if (spool_.claimAge(id) <= spec_.leaseSeconds)
            continue;
        const size_t count = spool_.bumpReclaimCount(id);
        if (count <= spec_.maxClaimReclaims) {
            if (spool_.reclaimShard(id))
                ++stats_.shardsReclaimed;
        } else if (spool_.quarantineShard(id)) {
            ++stats_.shardsPoisoned;
            const size_t task = taskIndexOfShardId(id);
            if (task < tasks_->size())
                ready_.push_back(
                    {.task = task,
                     .error = "poison shard " + id + ": claim reclaimed " +
                         std::to_string(count - 1) +
                         " times; shard quarantined"});
            progress = true;
        }
    }

    // Observe every worker record each pass so its age is
    // measured on CLOCK_MONOTONIC from the last mtime change we saw,
    // exactly like shard claims. Without this history the end-of-run
    // classification would fall back to wall-clock mtime arithmetic,
    // and an NTP step during the campaign would report live workers
    // as lost.
    for (const std::string& name : spool_.list("workers"))
        spool_.workerHealthAge(name);

    // Self-execution: with no dedicated workers (takeover, promotion,
    // single-process operation) the coordinator claims an open shard
    // itself whenever a pass made no progress, on a lazily created
    // local pool.
    if (options_.selfExecute && !progress) {
        for (const std::string& id : spool_.openShards()) {
            ShardDescriptor d;
            if (!spool_.claimShard(id, d))
                continue;
            if (d.task >= tasks_->size() || (*tasks_)[d.task].finished) {
                spool_.retireClaim(id);
                continue;
            }
            if (!selfPool_) {
                selfPool_ = std::make_unique<ThreadPool>(options_.threads);
                selfContexts_.resize(selfPool_->size());
            }
            std::string error = errorOf([&] {
                executeShardChunks(spool_, id, d, (*tasks_)[d.task].rt,
                                   *selfPool_, selfContexts_,
                                   spec_.leaseSeconds,
                                   [&] { spool_.heartbeatCoordinator(); });
            });
            if (!error.empty())
                ready_.push_back({.task = d.task, .error = std::move(error)});
            progress = true;
            break; // merge the fresh record before claiming more
        }
    }

    if (!progress)
        sleepSeconds(0.02);
}

void
SpoolExecutor::finalized(const CampaignResult& result)
{
    // Rewrite the whole journal (tmp+rename, like shard records)
    // after every finalize: it is always a consistent prefix of the
    // finalized tasks, no matter where we die. Tasks a checkpoint
    // restored stay with that checkpoint.
    std::vector<TaskResult> finished;
    for (size_t i = 0; i < tasks_->size(); ++i)
        if ((*tasks_)[i].finished && !result.tasks[i].fromCheckpoint)
            finished.push_back(result.tasks[i]);
    spool_.writeJournal(formatCheckpoint(finished));
}

void
SpoolExecutor::finish(CampaignResult& result)
{
    spool_.markDone();

    // Fold the worker records' states into the summary: done =>
    // healthy, degraded (transient retries) => degraded, a
    // live-looking record that stopped updating => lost, as is one
    // that cannot be read or fails its checksum.
    for (const std::string& name : spool_.list("workers")) {
        std::string state;
        try {
            state = parseWorkerStats(spool_.readFile("workers/" + name))
                        .state;
        } catch (const std::exception&) {
            ++stats_.workersLost;
            continue;
        }
        if (state == "done")
            ++stats_.workersHealthy;
        else if (state == "degraded")
            ++stats_.workersDegraded;
        else if (spool_.workerHealthAge(name) > spec_.leaseSeconds)
            ++stats_.workersLost;
        else
            ++stats_.workersHealthy;
    }

    stats_.transientRetries = spool_.transientRetries();
    mergeStats(result.spool, stats_);
    result.cache = cache_.stats();
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0_)
                             .count();
    // Publish the merged result into the spool too, so a promoted
    // worker's campaign (whose stdout nobody owns) is not lost.
    spool_.writeFile("result.json", campaignResultToJson(result),
                     "spool.result.commit");
    spool_.releaseCoordinatorLease(owner_);
}

} // namespace

size_t
effectiveShardChunks(const StoppingRule& rule)
{
    // About four claimable shards per wave, so a handful of workers
    // can share even a single-task campaign's wave, rounded up to a
    // staging-group multiple: worker-side groups then coincide exactly
    // with a single-process run's wave partition.
    const size_t staging = std::max<size_t>(1, rule.stagingChunks);
    const size_t wave = std::max<size_t>(1, rule.chunksPerWave);
    const size_t chunks = (wave + 3) / 4;
    return ((chunks + staging - 1) / staging) * staging;
}

CampaignResult
runDistributedCampaign(const CampaignSpec& spec,
                       const std::string& specText,
                       const CampaignCheckpoint* resume,
                       const CampaignEngine::TaskCallback& onTaskDone,
                       const CoordinatorOptions& options)
{
    if (spec.spool.empty())
        throw std::invalid_argument(
            "runDistributedCampaign needs spec.spool");
    for (const TaskSpec& t : spec.tasks) {
        if (t.stream.enabled)
            throw std::invalid_argument(
                "streaming tasks run in-process only: task '" + t.id +
                "' sets streaming = on, which the spool coordinator "
                "does not support (drop the spool, or disable "
                "streaming)");
    }

    SpoolExecutor exec(spec, specText, options);
    CampaignResult result = driveCampaign(spec, exec, resume, onTaskDone);
    exec.finish(result);
    return result;
}

std::string
formatWorkerStats(const WorkerReport& r)
{
    KvRecord rec("worker");
    rec.putFields(kWorkerReportFields, r);
    rec.putFields(CacheStats::fields(), r.cache, "cache.");
    return formatRecords(kWorkerStatsMagic, {rec});
}

WorkerReport
parseWorkerStats(const std::string& text)
{
    WorkerReport r;
    for (const KvRecord& rec :
         parseRecords(text, kWorkerStatsMagic, "worker record")) {
        if (rec.tag() != "worker")
            continue;
        rec.getFields(kWorkerReportFields, r);
        rec.getFields(CacheStats::fields(), r.cache, "cache.");
    }
    return r;
}

WorkerReport
runSpoolWorker(const WorkerOptions& opts)
{
    if (opts.spool.empty())
        throw std::invalid_argument("runSpoolWorker needs a spool dir");

    Spool spool(opts.spool);
    while (!spool.initialized())
        sleepSeconds(opts.pollSeconds);

    const SpoolManifest manifest = spool.readManifest();
    const CampaignSpec spec = parseCampaignSpec(spool.readSpecText());
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    std::vector<bool> built(resolved.size(), false);

    ArtifactCache cache;
    cache.attachStore(spool.cacheDir());
    ThreadPool pool(opts.threads);
    ThreadContexts contexts(pool.size());

    WorkerReport report;

    const std::string workerId = !opts.workerId.empty()
        ? opts.workerId
        : "pid" + std::to_string(::getpid());
    const std::string recordFile = "workers/" + workerId;

    // The worker's one record: its state and counters so far.
    auto writeRecord = [&](bool finished) {
        report.transientRetries = spool.transientRetries();
        report.cache = cache.stats();
        if (report.transientRetries > 0)
            report.state = "degraded";
        else
            report.state = finished ? "done" : "healthy";
        try {
            spool.writeFile(recordFile, formatWorkerStats(report),
                            "spool.stats.commit");
        } catch (const std::exception&) {
            // Advisory; never kill a worker over it.
        }
    };
    writeRecord(false);

    // Promotion bookkeeping: how long the coordinator lease has
    // looked dead (stale or absent) from this worker's seat.
    const auto steadyNow = [] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    };
    double leaseAbsentSince = -1.0;

    while (!spool.done()) {
        bool claimed = false;
        for (const std::string& id : spool.openShards()) {
            ShardDescriptor d;
            if (!spool.claimShard(id, d))
                continue;
            claimed = true;
            if (d.task >= resolved.size() ||
                resolved[d.task].contentHash != d.contentHash)
                throw std::runtime_error(
                    "shard " + id +
                    " does not match the spool's campaign spec "
                    "(content hash mismatch)");
            if (!built[d.task]) {
                buildTaskArtifacts(resolved[d.task], cache);
                built[d.task] = true;
            }
            const ShardRecord rec =
                executeShardChunks(spool, id, d, resolved[d.task], pool,
                                   contexts, manifest.leaseSeconds,
                                   nullptr);
            ++report.shardsRun;
            report.shots += rec.shots;
            report.failures += rec.failures;
            writeRecord(false);
            break; // rescan open/ for the freshest view
        }
        if (opts.maxShards > 0 && report.shardsRun >= opts.maxShards)
            break;
        if (!claimed) {
            // Keep the record's mtime fresh while idle, so the
            // coordinator can tell idle from dead.
            ::utimensat(AT_FDCWD,
                        (opts.spool + "/" + recordFile).c_str(),
                        nullptr, 0);

            // Promotion: nothing to claim, campaign unfinished, and
            // the coordinator has looked dead for a full lease
            // period — take over and finish the campaign ourselves.
            bool coordinatorDead = false;
            if (opts.promote) {
                if (!spool.hasCoordinatorLease()) {
                    const double now = steadyNow();
                    if (leaseAbsentSince < 0.0)
                        leaseAbsentSince = now;
                    coordinatorDead = now - leaseAbsentSince >
                        manifest.leaseSeconds;
                } else {
                    leaseAbsentSince = -1.0;
                    coordinatorDead = spool.coordinatorLeaseAge() >
                        manifest.leaseSeconds;
                }
            }
            if (coordinatorDead) {
                ++report.promotions;
                // The promoted coordinator decodes on a pool of its
                // own; free this loop's decoders first.
                contexts = ThreadContexts(pool.size());
                CampaignSpec promoted = spec;
                promoted.spool = opts.spool;
                // The lease the dead coordinator ran under, not the
                // spec text's (which may leave it at the default).
                promoted.leaseSeconds = manifest.leaseSeconds;
                CoordinatorOptions copts;
                copts.selfExecute = true;
                copts.threads = opts.threads;
                copts.owner = workerId;
                runDistributedCampaign(promoted,
                                       spool.readSpecText(), nullptr,
                                       nullptr, copts);
                continue; // the loop exits on the DONE marker
            }
            sleepSeconds(opts.pollSeconds);
        }
    }

    writeRecord(true);
    return report;
}

} // namespace cyclone
