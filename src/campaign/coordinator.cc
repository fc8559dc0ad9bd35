#include "campaign/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign_io.h"
#include "campaign/content_hash.h"
#include "campaign/fault_plan.h"
#include "campaign/thread_pool.h"
#include "common/stats.h"

namespace cyclone {

namespace {

constexpr const char* kWorkerStatsMagic = "cyclone-worker-stats v2";
constexpr const char* kJournalMagic = "cyclone-coord-journal v2";
constexpr const char* kHealthMagic = "cyclone-worker-health v1";

// Record fields besides the content hash and the nested stats.
const StatField<JournalEntry> kJournalFields[] = {
    {"task", &JournalEntry::task},
    {"shots", &JournalEntry::shots},
    {"failures", &JournalEntry::failures},
    {"chunks", &JournalEntry::chunks},
    {"stopped_early", &JournalEntry::stoppedEarly},
    {"sample_seconds", &JournalEntry::sampleSeconds, MergeRule::Sum,
     FieldKind::Timing},
};

const StatField<WorkerReport> kWorkerReportFields[] = {
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

/** Install the spec's fault plan unless the environment already
 *  provided one (the env var wins so CI can inject without editing
 *  spec files). */
void
maybeInstallSpecFaultPlan(const CampaignSpec& spec)
{
    if (!spec.faultPlan.empty() &&
        std::getenv("CYCLONE_FAULT_PLAN") == nullptr)
        installFaultPlan(FaultPlan::parse(spec.faultPlan));
}

/** Build a retry policy from spec/manifest knobs. */
RetryPolicy
retryPolicyFrom(size_t attempts, double baseMs)
{
    RetryPolicy p;
    p.maxAttempts = std::max<size_t>(1, attempts);
    p.baseDelaySeconds = std::max(0.0, baseMs) / 1000.0;
    return p;
}

/** Coordinator-side view of one task in flight. */
struct CoordTask
{
    ResolvedTask rt;
    std::optional<AdaptiveSampler> sampler;
    /** Shard ids of the current wave still awaiting records. */
    std::vector<std::string> outstanding;
    /** Descriptors of published-but-unmerged shards, kept so a shard
     *  whose record was quarantined can be republished even if every
     *  on-disk copy of its descriptor is gone. */
    std::unordered_map<std::string, ShardDescriptor> inflight;
    size_t nextShard = 0;
    bool finished = false;
    double sampleSeconds = 0.0;
};

/** Per-pool-thread decode contexts, rebuilt per shard so every
 *  record's decoder counters cover exactly that shard's groups. */
struct ShardCtx
{
    BpOsdDecoder decoder;
    std::vector<ShotBatch> batches;
    ShardCtx(const DetectorErrorModel& dem, const BpOptions& bp)
        : decoder(dem, bp)
    {}
};

/**
 * Execute one claimed shard on `pool` and publish its record —
 * the one shard-execution path, shared by worker loops and
 * self-executing coordinators so both produce byte-identical
 * records. Heartbeats the claim (and `extraHeartbeat`, e.g. the
 * coordinator lease) while the pool decodes.
 */
ShardRecord
executeShardChunks(Spool& spool, const std::string& id,
                   const ShardDescriptor& d, const ResolvedTask& rt,
                   ThreadPool& pool, double leaseSeconds,
                   const std::function<void()>& extraHeartbeat)
{
    const StoppingRule& rule = rt.spec->stop;
    const size_t staging = std::max<size_t>(1, rule.stagingChunks);

    // Rebuild the shard's exact ChunkPlans from its chunk range:
    // same shots formula and seed derivation the coordinator's
    // sampler used when it planned the wave.
    std::vector<ChunkPlan> plans(d.numChunks);
    for (size_t k = 0; k < d.numChunks; ++k) {
        plans[k].index = d.firstChunk + k;
        plans[k].shots = chunkShotsAt(rule, plans[k].index);
        plans[k].seed = chunkSeed(d.taskSeed, plans[k].index);
    }

    std::vector<std::unique_ptr<ShardCtx>> ctxs(pool.size());
    std::mutex mutex;
    ChunkOutcome total;
    double seconds = 0.0;
    std::exception_ptr error;
    std::atomic<size_t> pending{0};

    for (size_t g = 0; g < plans.size(); g += staging) {
        const size_t count = std::min(staging, plans.size() - g);
        pending.fetch_add(1);
        pool.submit([&, g, count] {
            const auto c0 = std::chrono::steady_clock::now();
            try {
                const int w = ThreadPool::workerIndex();
                auto& ctx = ctxs[w >= 0 ? static_cast<size_t>(w) : 0];
                if (!ctx)
                    ctx = std::make_unique<ShardCtx>(*rt.dem,
                                                     rt.spec->bp);
                const ChunkOutcome out = runChunkGroup(
                    *rt.dem, plans.data() + g, count, ctx->decoder,
                    ctx->batches);
                std::lock_guard<std::mutex> lock(mutex);
                total.shots += out.shots;
                total.failures += out.failures;
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - c0)
                           .count();
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
    if (error)
        std::rethrow_exception(error);

    ShardRecord rec;
    rec.task = d.task;
    rec.shard = d.shard;
    rec.contentHash = d.contentHash;
    rec.shots = total.shots;
    rec.failures = total.failures;
    rec.seconds = seconds;
    for (const auto& ctx : ctxs)
        if (ctx)
            mergeStats(rec.decoder, ctx->decoder.stats());
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

} // namespace

size_t
effectiveShardChunks(const StoppingRule& rule)
{
    const size_t staging = std::max<size_t>(1, rule.stagingChunks);
    size_t chunks = rule.shardChunks;
    if (chunks == 0) {
        // Auto: about four claimable shards per wave, so a handful of
        // workers can share even a single-task campaign's wave.
        const size_t wave = std::max<size_t>(1, rule.chunksPerWave);
        chunks = (wave + 3) / 4;
    }
    // Round up to a staging-group multiple: worker-side groups then
    // coincide exactly with a single-process run's wave partition.
    return ((chunks + staging - 1) / staging) * staging;
}

size_t
chunkShotsAt(const StoppingRule& rule, size_t index)
{
    const size_t chunkShots =
        rule.chunkShots > 0 ? rule.chunkShots : 256;
    const size_t planned = index * chunkShots;
    if (planned >= rule.maxShots)
        return 0;
    return std::min(chunkShots, rule.maxShots - planned);
}

std::string
formatCoordJournal(const std::vector<JournalEntry>& entries)
{
    std::vector<KvRecord> records;
    for (const JournalEntry& e : entries) {
        KvRecord& rec = records.emplace_back("task");
        rec.putHex("content_hash", e.contentHash);
        rec.putFields(kJournalFields, e);
        rec.putFields(BpOsdStats::fields(), e.decoder, "decoder.");
    }
    return formatRecords(kJournalMagic, records);
}

std::vector<JournalEntry>
parseCoordJournal(const std::string& text)
{
    std::vector<JournalEntry> entries;
    for (const KvRecord& rec :
         parseRecords(text, kJournalMagic, "coordinator journal")) {
        if (rec.tag() != "task")
            continue;
        JournalEntry& e = entries.emplace_back();
        rec.getFields(kJournalFields, e);
        e.contentHash = rec.hex("content_hash");
        rec.getFields(BpOsdStats::fields(), e.decoder, "decoder.");
    }
    return entries;
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

    maybeInstallSpecFaultPlan(spec);

    const auto t0 = std::chrono::steady_clock::now();
    Spool spool(spec.spool);
    spool.setRetryPolicy(
        retryPolicyFrom(spec.retryAttempts, spec.retryBaseMs));
    SpoolManifest manifest;
    manifest.name = spec.name;
    manifest.seed = spec.seed;
    manifest.leaseSeconds = spec.leaseSeconds;
    manifest.retryAttempts = spec.retryAttempts;
    manifest.retryBaseMs = spec.retryBaseMs;
    spool.initialize(manifest, specText);

    const size_t n = spec.tasks.size();
    CampaignResult result;
    result.name = spec.name;
    result.seed = spec.seed;
    result.tasks.resize(n);

    // Become THE coordinator: create the lease, or wait out a live
    // one and steal it once stale. A fresh lease is heartbeated by
    // its owner, so the steal only ever fires on a dead coordinator
    // (monotonic age: a wall-clock step cannot fake staleness).
    const std::string owner = !options.owner.empty()
        ? options.owner
        : "pid" + std::to_string(::getpid());
    while (!spool.acquireCoordinatorLease(owner)) {
        const double age = spool.coordinatorLeaseAge();
        if (age < 0.0)
            continue; // lease vanished; retry the acquire
        if (age > spec.leaseSeconds) {
            if (spool.stealCoordinatorLease(owner)) {
                ++result.spool.coordinatorTakeovers;
                break;
            }
            continue; // another stealer won; wait on its lease
        }
        sleepSeconds(std::min(0.05, spec.leaseSeconds / 8.0));
    }
    faultMilestone("coord.lease.acquired");

    ArtifactCache cache;
    cache.attachStore(spool.cacheDir());

    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    std::vector<CoordTask> states(n);
    size_t remaining = 0;

    for (size_t i = 0; i < n; ++i) {
        CoordTask& st = states[i];
        st.rt = std::move(resolved[i]);
        const TaskSpec& t = spec.tasks[i];
        TaskResult& r = result.tasks[i];
        r.id = !t.id.empty() ? t.id : "task" + std::to_string(i);
        r.codeName =
            !t.codeName.empty() ? t.codeName : st.rt.code->name();
        r.architecture = t.compileLatency
            ? architectureName(t.architecture)
            : "explicit";
        r.physicalError = t.physicalError;
        r.rounds = st.rt.rounds;
        r.xBasis = t.xBasis;
        r.contentHash = st.rt.contentHash;
        if (applyCheckpoint(r, resume)) {
            st.finished = true;
            if (onTaskDone)
                onTaskDone(r);
            continue;
        }
        ++remaining;
    }

    // A dead predecessor's merge journal: tasks it already finalized
    // restore below without re-merging a single record.
    std::vector<JournalEntry> journal;
    {
        std::string text;
        if (spool.readJournal(text)) {
            try {
                journal = parseCoordJournal(text);
            } catch (const std::exception&) {
                // Torn journal (the predecessor died mid-commit...
                // of the commit): quarantine it and fall back to
                // re-merging from records, which is merely slower.
                spool.quarantineFile("journal.txt");
                ++result.spool.recordsQuarantined;
                journal.clear();
            }
        }
    }
    auto journalFor = [&](uint64_t hash) -> const JournalEntry* {
        for (const JournalEntry& e : journal)
            if (e.contentHash == hash)
                return &e;
        return nullptr;
    };

    // Resolve all artifacts up front, sequentially and thread-free
    // (callers fork worker processes around this function; a live
    // pool would make that unsafe). Every compile and DEM publishes
    // to the spool store before any shard exists, so workers always
    // store-hit and the fleet builds each distinct artifact once.
    for (size_t i = 0; i < n; ++i) {
        CoordTask& st = states[i];
        if (st.finished)
            continue;
        spool.heartbeatCoordinator();
        try {
            buildTaskArtifacts(st.rt, cache);
            st.sampler.emplace(st.rt.spec->stop, st.rt.taskSeed);
        } catch (const std::exception& ex) {
            result.tasks[i].error = ex.what();
        }
    }
    faultMilestone("coord.prebuilt");

    // Rewrite the whole journal (tmp+rename, like shard records)
    // after every finalize: the journal is always a consistent
    // prefix of the finalized tasks, no matter where we die.
    auto writeJournalNow = [&] {
        std::vector<JournalEntry> entries;
        for (size_t i = 0; i < n; ++i) {
            const TaskResult& r = result.tasks[i];
            if (!states[i].finished || r.fromCheckpoint ||
                !r.error.empty())
                continue;
            JournalEntry e;
            e.task = i;
            e.contentHash = r.contentHash;
            e.shots = r.logicalErrorRate.trials;
            e.failures = r.logicalErrorRate.successes;
            e.chunks = r.chunks;
            e.stoppedEarly = r.stoppedEarly;
            e.sampleSeconds = r.sampleSeconds;
            e.decoder = r.decoder;
            entries.push_back(std::move(e));
        }
        spool.writeJournal(formatCoordJournal(entries));
    };

    auto finalize = [&](size_t i) {
        CoordTask& st = states[i];
        TaskResult& r = result.tasks[i];
        st.finished = true;
        if (st.sampler) {
            r.logicalErrorRate = st.sampler->estimate();
            r.wilson = wilsonHalfWidth(st.sampler->failures(),
                                       st.sampler->shots());
            r.chunks = st.sampler->chunksPlanned();
            r.stoppedEarly = st.sampler->stoppedEarly();
        }
        fillResolvedMetadata(r, st.rt);
        r.sampleSeconds = st.sampleSeconds;
        if (r.rounds > 0 && r.logicalErrorRate.trials > 0) {
            const double ler =
                std::min(r.logicalErrorRate.rate, 1.0 - 1e-12);
            r.perRoundErrorRate = 1.0 -
                std::pow(1.0 - ler,
                         1.0 / static_cast<double>(r.rounds));
        }
        if (onTaskDone)
            onTaskDone(r);
        writeJournalNow();
        faultMilestone("coord.task.finalized");
    };

    // Restore a task a dead coordinator already finalized: same
    // fields finalize() derives, from the journaled counts — the
    // estimate/Wilson formulas are pure functions of (failures,
    // shots), so the restored task is bit-identical.
    auto restoreFromJournal = [&](size_t i, const JournalEntry& e) {
        CoordTask& st = states[i];
        TaskResult& r = result.tasks[i];
        st.finished = true;
        r.logicalErrorRate = estimateRate(e.failures, e.shots);
        r.wilson = wilsonHalfWidth(e.failures, e.shots);
        r.chunks = e.chunks;
        r.stoppedEarly = e.stoppedEarly;
        r.decoder = e.decoder;
        fillResolvedMetadata(r, st.rt);
        r.sampleSeconds = e.sampleSeconds;
        if (r.rounds > 0 && r.logicalErrorRate.trials > 0) {
            const double ler =
                std::min(r.logicalErrorRate.rate, 1.0 - 1e-12);
            r.perRoundErrorRate = 1.0 -
                std::pow(1.0 - ler,
                         1.0 / static_cast<double>(r.rounds));
        }
        ++result.spool.journalRestores;
        if (onTaskDone)
            onTaskDone(r);
    };

    // Publish one wave as contiguous chunk-range shards. Returns
    // false when the sampler has nothing left to plan.
    auto publishWave = [&](size_t i) -> bool {
        CoordTask& st = states[i];
        const std::vector<ChunkPlan> wave = st.sampler->nextWave();
        if (wave.empty())
            return false;
        const size_t step =
            effectiveShardChunks(st.rt.spec->stop);
        for (size_t g = 0; g < wave.size(); g += step) {
            const size_t count = std::min(step, wave.size() - g);
            ShardDescriptor d;
            d.task = i;
            d.shard = st.nextShard++;
            d.firstChunk = wave[g].index;
            d.numChunks = count;
            d.chunkShots = st.rt.spec->stop.chunkShots > 0
                ? st.rt.spec->stop.chunkShots
                : 256;
            d.contentHash = st.rt.contentHash;
            d.taskSeed = st.rt.taskSeed;
            const std::string id = shardId(d.task, d.shard);
            if (spool.publishShard(d)) {
                ++result.spool.shardsPublished;
            } else if (spool.hasRecord(id)) {
                // A previous coordinator run already collected this
                // shard; the merge scan below absorbs it directly.
                ++result.spool.recordsReused;
            }
            st.outstanding.push_back(id);
            st.inflight.emplace(id, d);
        }
        faultMilestone("coord.wave.published");
        return true;
    };

    for (size_t i = 0; i < n; ++i) {
        CoordTask& st = states[i];
        if (st.finished)
            continue;
        if (st.sampler) {
            if (const JournalEntry* e = journalFor(st.rt.contentHash)) {
                restoreFromJournal(i, *e);
                --remaining;
                continue;
            }
        }
        if (!st.sampler || !publishWave(i)) {
            finalize(i);
            --remaining;
        }
    }

    // Finalize a task as poisoned: its shard keeps killing whoever
    // claims it, so surface an error instead of livelocking the
    // fleet re-publishing it forever.
    auto poisonTask = [&](const std::string& id, size_t reclaims) {
        const size_t i = taskIndexOfShardId(id);
        if (i >= n || states[i].finished)
            return;
        TaskResult& r = result.tasks[i];
        r.error = "poison shard " + id + ": claim reclaimed " +
            std::to_string(reclaims) +
            " times; shard quarantined";
        finalize(i);
        --remaining;
    };

    std::unique_ptr<ThreadPool> selfPool;

    while (remaining > 0) {
        spool.heartbeatCoordinator();
        bool progress = false;
        for (size_t i = 0; i < n; ++i) {
            CoordTask& st = states[i];
            if (st.finished)
                continue;
            for (size_t k = 0; k < st.outstanding.size();) {
                const std::string id = st.outstanding[k];
                if (!spool.hasRecord(id)) {
                    ++k;
                    continue;
                }
                ShardRecord rec;
                try {
                    rec = spool.readRecord(id);
                } catch (const CorruptRecordError&) {
                    // Torn or rotted record: quarantine it and make
                    // sure the shard is executable again — revive
                    // its done/ tombstone, or republish from our
                    // in-flight descriptor if every on-disk copy is
                    // gone. (If the claim is still in claimed/, the
                    // lease sweep below recycles it.)
                    spool.quarantineRecord(id);
                    ++result.spool.recordsQuarantined;
                    if (!spool.reviveShard(id)) {
                        const auto itD = st.inflight.find(id);
                        if (itD != st.inflight.end() &&
                            spool.publishShard(itD->second))
                            ++result.spool.shardsPublished;
                    }
                    progress = true;
                    ++k;
                    continue;
                }
                if (rec.contentHash != st.rt.contentHash)
                    throw std::runtime_error(
                        "spool record " + id +
                        " does not match this campaign's task "
                        "(content hash mismatch)");
                st.sampler->absorb(
                    ChunkOutcome{rec.shots, rec.failures});
                st.sampleSeconds += rec.seconds;
                mergeStats(result.tasks[i].decoder, rec.decoder);
                ++result.spool.shardsMerged;
                st.inflight.erase(id);
                st.outstanding.erase(st.outstanding.begin() +
                                     static_cast<std::ptrdiff_t>(k));
                progress = true;
                faultMilestone("coord.record.merged");
            }
            if (st.outstanding.empty()) {
                if (st.sampler->done() || !publishWave(i)) {
                    finalize(i);
                    --remaining;
                }
                progress = true;
            }
        }

        // Lease sweep: claims whose heartbeat went stale go back to
        // open/ so surviving workers re-execute them. Records are
        // deterministic, so a worker that was merely slow (not dead)
        // racing its reclaimed twin is harmless. The per-shard
        // reclaim counter persists in the spool, so a shard that
        // keeps killing workers is caught even across coordinator
        // failovers.
        for (const std::string& id : spool.claimedShards()) {
            const double age = spool.claimAge(id);
            if (age <= spec.leaseSeconds)
                continue;
            const size_t count = spool.bumpReclaimCount(id);
            if (count > spec.maxClaimReclaims) {
                if (spool.quarantineShard(id)) {
                    ++result.spool.shardsPoisoned;
                    poisonTask(id, count - 1);
                    progress = true;
                }
            } else if (spool.reclaimShard(id)) {
                ++result.spool.shardsReclaimed;
            }
        }

        // Observe every worker health file each pass so its age is
        // measured on CLOCK_MONOTONIC from the last mtime change we
        // saw, exactly like shard claims. Without this history the
        // end-of-run classification would fall back to wall-clock
        // mtime arithmetic, and an NTP step during the campaign
        // would report live workers as lost.
        for (const std::string& name : spool.list("workers"))
            spool.workerHealthAge(name);

        // Self-execution: with no dedicated workers (takeover,
        // promotion, single-process operation) the coordinator
        // claims an open shard itself whenever a pass made no
        // progress, on a lazily created local pool.
        if (options.selfExecute && !progress && remaining > 0) {
            for (const std::string& id : spool.openShards()) {
                ShardDescriptor d;
                if (!spool.claimShard(id, d))
                    continue;
                if (d.task >= n || states[d.task].finished) {
                    spool.retireClaim(id);
                    continue;
                }
                if (!selfPool)
                    selfPool =
                        std::make_unique<ThreadPool>(options.threads);
                try {
                    executeShardChunks(
                        spool, id, d, states[d.task].rt, *selfPool,
                        spec.leaseSeconds,
                        [&] { spool.heartbeatCoordinator(); });
                } catch (const std::exception& ex) {
                    TaskResult& r = result.tasks[d.task];
                    if (r.error.empty())
                        r.error = ex.what();
                    finalize(d.task);
                    --remaining;
                }
                progress = true;
                break; // merge the fresh record before claiming more
            }
        }

        if (!progress)
            sleepSeconds(0.02);
    }

    spool.markDone();

    // Fold worker health files into the summary: done => healthy,
    // degraded (transient retries) => degraded, a live-looking file
    // that stopped updating => lost.
    for (const std::string& name : spool.list("workers")) {
        try {
            const std::string text = spool.readFile("workers/" + name);
            std::istringstream in(text);
            std::string line;
            std::string state = "healthy";
            if (std::getline(in, line) && line == kHealthMagic) {
                std::string key, value;
                while (in >> key >> value)
                    if (key == "state")
                        state = value;
            }
            if (state == "done") {
                ++result.spool.workersHealthy;
            } else if (state == "degraded") {
                ++result.spool.workersDegraded;
            } else {
                const double age = spool.workerHealthAge(name);
                if (age > spec.leaseSeconds)
                    ++result.spool.workersLost;
                else
                    ++result.spool.workersHealthy;
            }
        } catch (const std::exception&) {
            ++result.spool.workersLost;
        }
    }

    result.cache = cache.stats();
    result.spool.transientRetries = spool.transientRetries();
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    WorkerReport coordStats;
    coordStats.cache = result.cache;
    coordStats.transientRetries = spool.transientRetries();
    spool.writeFile("stats-coordinator.txt",
                    formatWorkerStats(coordStats),
                    "spool.stats.commit");
    // Publish the merged result into the spool too, so a promoted
    // worker's campaign (whose stdout nobody owns) is not lost.
    spool.writeFile("result.json", campaignResultToJson(result),
                    "spool.result.commit");
    spool.releaseCoordinatorLease(owner);
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
         parseRecords(text, kWorkerStatsMagic, "worker stats file")) {
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
    spool.setRetryPolicy(retryPolicyFrom(manifest.retryAttempts,
                                         manifest.retryBaseMs));
    const CampaignSpec spec = parseCampaignSpec(spool.readSpecText());
    maybeInstallSpecFaultPlan(spec);
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    std::vector<bool> built(resolved.size(), false);

    ArtifactCache cache;
    cache.attachStore(spool.cacheDir());
    ThreadPool pool(opts.threads);

    WorkerReport report;
    bool dying = false;

    const std::string workerId = !opts.workerId.empty()
        ? opts.workerId
        : "pid" + std::to_string(::getpid());
    const std::string healthFile = "workers/" + workerId;

    auto writeHealth = [&](const char* state) {
        std::ostringstream out;
        out << kHealthMagic << "\n"
            << "state " << state << "\n"
            << "retries " << spool.transientRetries() << "\n"
            << "shards " << report.shardsRun << "\n";
        try {
            spool.writeFile(healthFile, out.str(),
                            "spool.health.commit");
        } catch (const std::exception&) {
            // Health is advisory; never kill a worker over it.
        }
    };
    writeHealth("healthy");

    // Promotion bookkeeping: how long the coordinator lease has
    // looked dead (stale or absent) from this worker's seat.
    const auto steadyNow = [] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    };
    double leaseAbsentSince = -1.0;

    while (!spool.done() && !dying) {
        bool claimed = false;
        for (const std::string& id : spool.openShards()) {
            ShardDescriptor d;
            if (!spool.claimShard(id, d))
                continue;
            claimed = true;
            if (opts.dieAfterClaim) {
                // Leave the claim dangling, as a killed worker would.
                dying = true;
                break;
            }
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
                executeShardChunks(spool, id, d, resolved[d.task],
                                   pool, manifest.leaseSeconds,
                                   nullptr);
            ++report.shardsRun;
            report.shots += rec.shots;
            report.failures += rec.failures;
            writeHealth(spool.transientRetries() > 0 ? "degraded"
                                                     : "healthy");
            break; // rescan open/ for the freshest view
        }
        if (opts.maxShards > 0 && report.shardsRun >= opts.maxShards)
            break;
        if (!claimed) {
            // Keep the health file's mtime fresh while idle, so the
            // coordinator can tell idle from dead.
            ::utimensat(AT_FDCWD,
                        (opts.spool + "/" + healthFile).c_str(),
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
                CampaignSpec promoted = spec;
                promoted.spool = opts.spool;
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

    report.cache = cache.stats();
    report.transientRetries = spool.transientRetries();
    if (!opts.dieAfterClaim) {
        writeHealth(report.transientRetries > 0 ? "degraded"
                                                : "done");
        spool.writeFile("stats-" + workerId + ".txt",
                        formatWorkerStats(report),
                        "spool.stats.commit");
    }
    return report;
}

} // namespace cyclone
