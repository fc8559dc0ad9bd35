#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/adaptive_sampler.h"
#include "campaign/content_hash.h"
#include "circuit/memory_circuit.h"
#include "dem/dem_builder.h"
#include "noise/noise_model.h"
#include "noise/schedule_noise.h"
#include "qec/code_catalog.h"

namespace cyclone {

namespace {

/** Per-worker sampling context: decoder state plus reusable packed
 *  shot buffers for the batch pipeline (one per staged chunk), and —
 *  for streaming tasks — the worker's streaming front-end wrapping
 *  the same decoder. */
struct WorkerCtx
{
    BpOsdDecoder decoder;
    std::vector<ShotBatch> batches;
    std::unique_ptr<StreamDecoder> stream;

    WorkerCtx(const DetectorErrorModel& dem, const BpOptions& bp)
        : decoder(dem, bp)
    {}
};

/**
 * Map a task's StreamSpec onto StreamDecoderOptions. The deadline
 * defaults to one window period — rounds x the task's (compiled or
 * explicit) round latency, the time the hardware takes to produce
 * the next window — so deadline misses mean "the decoder fell behind
 * the machine". Requires built artifacts (rt.latencyUs).
 */
StreamDecoderOptions
streamOptionsFor(const ResolvedTask& rt)
{
    const StreamSpec& ss = rt.spec->stream;
    StreamDecoderOptions o;
    o.streams = ss.streams > 0 ? ss.streams : 1;
    o.roundsPerWindow = rt.rounds > 0 ? rt.rounds : 1;
    o.policy = ss.deadlineFlush ? FlushPolicy::Deadline
                                : FlushPolicy::FullWave;
    o.deadlineUs = ss.deadlineUs > 0.0
        ? ss.deadlineUs
        : rt.latencyUs * static_cast<double>(o.roundsPerWindow);
    o.flushAfterUs = ss.flushAfterUs;
    o.capacityChunks =
        std::max<size_t>(size_t{1}, rt.spec->stop.stagingChunks);
    return o;
}

struct TaskState
{
    ResolvedTask rt;

    std::optional<AdaptiveSampler> sampler;
    std::vector<std::unique_ptr<WorkerCtx>> workers;
    size_t outstanding = 0;
    double sampleSeconds = 0.0;
    bool resolved = false;
    bool failed = false;
    bool finished = false;
};

enum class EventKind
{
    Resolved,
    ChunkDone,
    Failed,
};

struct Event
{
    EventKind kind = EventKind::Failed;
    size_t task = 0;
    ChunkOutcome outcome;
    double seconds = 0.0;
    std::string error;
};

/** Completion channel from pool workers to the coordinator. */
struct EventQueue
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Event> events;

    void
    push(Event e)
    {
        // Notify under the lock: the coordinator may pop this event,
        // finish the run and destroy the queue; holding the mutex
        // through the notify keeps the cv alive for the whole call.
        std::lock_guard<std::mutex> lock(mutex);
        events.push_back(std::move(e));
        cv.notify_one();
    }

    Event
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !events.empty(); });
        Event e = std::move(events.front());
        events.pop_front();
        return e;
    }
};

uint64_t
taskContentHash(const ResolvedTask& rt)
{
    const TaskSpec& t = *rt.spec;
    HashStream h;
    h.absorb(rt.codeHash).absorb(rt.scheduleHash);
    h.absorb(uint64_t{t.compileLatency ? 1u : 0u});
    if (t.compileLatency)
        h.absorb(std::string(architectureName(t.architecture)));
    else
        h.absorb(t.roundLatencyUs);
    h.absorb(uint64_t{t.swap == SwapKind::IonSwap ? 1u : 0u});
    h.absorb(uint64_t{t.gridCapacity});
    h.absorb(uint64_t{
        t.idleNoise == IdleNoiseMode::PerQubitSchedule ? 1u : 0u});
    for (const PauliTwirl& twirl : t.perQubitIdle)
        h.absorb(twirl.px).absorb(twirl.py).absorb(twirl.pz);
    h.absorb(t.latencyScale).absorb(t.physicalError);
    h.absorb(uint64_t{rt.rounds}).absorb(uint64_t{t.xBasis ? 1u : 0u});
    h.absorb(uint64_t{static_cast<unsigned>(t.bp.variant)});
    // Product-sum results moved at the ulp level when its tanh/log
    // left libm (bp_math.inl): the tag re-keys those tasks once, so
    // checkpoints and spool records of the libm era re-run instead of
    // mixing in. Min-sum keys are unchanged.
    if (t.bp.variant == BpOptions::Variant::ProductSum)
        h.absorb(std::string("bp_math"));
    h.absorb(uint64_t{t.bp.maxIterations});
    h.absorb(t.bp.minSumScale).absorb(t.bp.clamp);
    h.absorb(uint64_t{t.stop.chunkShots});
    h.absorb(uint64_t{t.stop.chunksPerWave});
    h.absorb(uint64_t{t.stop.maxShots});
    h.absorb(t.stop.targetRelErr);
    h.absorb(uint64_t{t.stop.minFailures});
    h.absorb(rt.taskSeed);
    return h.digest();
}

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

CssCode
resolveCampaignCode(const std::string& name)
{
    if (name.rfind("surface", 0) == 0 && name.size() > 7) {
        char* end = nullptr;
        const long d = std::strtol(name.c_str() + 7, &end, 10);
        if (end != nullptr && *end == '\0' && d >= 2)
            return catalog::surface(static_cast<size_t>(d));
    }
    return catalog::byName(name);
}

std::span<const StatField<SpoolStats>>
SpoolStats::fields()
{
    using S = SpoolStats;
    static const StatField<S> kFields[] = {
        {"shards_published", &S::shardsPublished},
        {"shards_merged", &S::shardsMerged},
        {"shards_reclaimed", &S::shardsReclaimed},
        {"records_reused", &S::recordsReused},
        {"shards_poisoned", &S::shardsPoisoned},
        {"records_quarantined", &S::recordsQuarantined},
        {"transient_retries", &S::transientRetries},
        {"coordinator_takeovers", &S::coordinatorTakeovers},
        {"journal_restores", &S::journalRestores},
        {"workers_healthy", &S::workersHealthy},
        {"workers_degraded", &S::workersDegraded},
        {"workers_lost", &S::workersLost},
    };
    return kFields;
}

size_t
CampaignResult::totalShots() const
{
    size_t total = 0;
    for (const TaskResult& t : tasks)
        total += t.logicalErrorRate.trials;
    return total;
}

std::vector<ResolvedTask>
resolveTaskIdentities(const CampaignSpec& spec)
{
    const size_t n = spec.tasks.size();
    std::vector<ResolvedTask> resolved(n);
    std::unordered_map<std::string, std::shared_ptr<const CssCode>>
        codeByName;
    std::unordered_map<const CssCode*,
                       std::shared_ptr<const SyndromeSchedule>>
        schedByCode;

    for (size_t i = 0; i < n; ++i) {
        const TaskSpec& t = spec.tasks[i];
        ResolvedTask& rt = resolved[i];
        rt.spec = &t;
        if (t.code) {
            rt.code = t.code;
        } else {
            if (t.codeName.empty())
                throw std::invalid_argument(
                    "TaskSpec needs codeName or an inline code");
            auto it = codeByName.find(t.codeName);
            if (it == codeByName.end())
                it = codeByName
                         .emplace(t.codeName,
                                  std::make_shared<const CssCode>(
                                      resolveCampaignCode(t.codeName)))
                         .first;
            rt.code = it->second;
        }
        if (t.schedule) {
            rt.schedule = t.schedule;
        } else {
            auto it = schedByCode.find(rt.code.get());
            if (it == schedByCode.end())
                it = schedByCode
                         .emplace(rt.code.get(),
                                  std::make_shared<
                                      const SyndromeSchedule>(
                                      makeXThenZSchedule(*rt.code)))
                         .first;
            rt.schedule = it->second;
        }
        rt.rounds = t.rounds > 0
            ? t.rounds
            : (rt.code->nominalDistance() > 0
                   ? rt.code->nominalDistance()
                   : 3);
        rt.codeHash = hashCode(*rt.code);
        rt.scheduleHash = hashSchedule(*rt.schedule);
        HashStream seedMix;
        seedMix.absorb(spec.seed).absorb(uint64_t{i}).absorb(t.seed);
        rt.taskSeed = seedMix.digest();
        rt.contentHash = taskContentHash(rt);
    }
    return resolved;
}

void
buildTaskArtifacts(ResolvedTask& rt, ArtifactCache& cache)
{
    const TaskSpec& t = *rt.spec;
    double latency = t.roundLatencyUs;
    if (t.compileLatency) {
        HashStream ch;
        ch.absorb(rt.codeHash)
            .absorb(rt.scheduleHash)
            .absorb(std::string(architectureName(t.architecture)))
            .absorb(uint64_t{t.swap == SwapKind::IonSwap ? 1u : 0u})
            .absorb(uint64_t{t.gridCapacity});
        rt.compiled = cache.getOrBuildCompile(ch.digest(), [&] {
            CodesignConfig config;
            config.architecture = t.architecture;
            config.ejf.swap = t.swap;
            config.cyclone.swap = t.swap;
            config.gridCapacity = t.gridCapacity;
            return compileCodesign(*rt.code, *rt.schedule, config);
        });
        latency = rt.compiled->execTimeUs;
    }
    latency *= t.latencyScale;
    rt.latencyUs = latency;

    // Schedule-derived per-qubit idle twirls: explicit ones win;
    // otherwise measure the compiled IR. Only PerQubitSchedule mode
    // consumes them — the twirls are part of the DEM identity, so
    // uniform-mode tasks must not carry unhashed ones into the
    // circuit.
    std::vector<PauliTwirl> perQubitIdle;
    if (t.idleNoise == IdleNoiseMode::PerQubitSchedule) {
        perQubitIdle = t.perQubitIdle;
        if (perQubitIdle.empty()) {
            if (!rt.compiled) {
                throw std::invalid_argument(
                    "per-qubit idle noise needs a compiled "
                    "architecture (or explicit perQubitIdle twirls)");
            }
            perQubitIdle = perQubitIdleFromSchedule(
                rt.compiled->schedule, rt.code->numQubits(),
                t.physicalError, t.latencyScale);
        }
    }

    HashStream dh;
    dh.absorb(rt.codeHash)
        .absorb(rt.scheduleHash)
        .absorb(t.physicalError)
        .absorb(latency)
        .absorb(uint64_t{rt.rounds})
        .absorb(uint64_t{t.xBasis ? 1u : 0u});
    if (t.idleNoise == IdleNoiseMode::PerQubitSchedule) {
        // The DEM now depends on the exact timeline, not just its
        // makespan: key on the IR's content hash (or the explicit
        // twirl values).
        dh.absorb(uint64_t{1});
        if (!t.perQubitIdle.empty()) {
            for (const PauliTwirl& twirl : perQubitIdle)
                dh.absorb(twirl.px)
                    .absorb(twirl.py)
                    .absorb(twirl.pz);
        } else {
            dh.absorb(hashTimedSchedule(rt.compiled->schedule));
            dh.absorb(t.latencyScale);
        }
    }
    rt.dem = cache.getOrBuildDem(dh.digest(), [&] {
        MemoryCircuitOptions opts;
        opts.rounds = rt.rounds;
        opts.perQubitIdle = perQubitIdle;
        opts.noise = latency > 0.0 && perQubitIdle.empty()
            ? NoiseModel::withLatency(t.physicalError, latency)
            : NoiseModel::uniform(t.physicalError);
        const Circuit circuit = t.xBasis
            ? buildXMemoryCircuit(*rt.code, *rt.schedule, opts)
            : buildZMemoryCircuit(*rt.code, *rt.schedule, opts);
        return buildDetectorErrorModel(circuit);
    });
}

void
fillResolvedMetadata(TaskResult& r, const ResolvedTask& rt)
{
    r.roundLatencyUs = rt.latencyUs;
    if (rt.dem) {
        r.demDetectors = rt.dem->numDetectors;
        r.demMechanisms = rt.dem->mechanisms.size();
    }
    if (rt.compiled) {
        r.compileMakespanUs = rt.compiled->execTimeUs;
        r.compileBreakdown = rt.compiled->serialized;
        r.compileParallelFraction = rt.compiled->parallelFraction();
        r.trapRoadblocks = rt.compiled->trapRoadblocks;
        r.junctionRoadblocks = rt.compiled->junctionRoadblocks;
        r.roadblockWaits = rt.compiled->schedule.waitHistogram();
    }
}

bool
applyCheckpoint(TaskResult& r, const CampaignCheckpoint* resume)
{
    if (resume == nullptr)
        return false;
    auto it = resume->tasks.find(r.contentHash);
    if (it == resume->tasks.end())
        return false;
    const TaskResult& saved = it->second;
    r.logicalErrorRate = saved.logicalErrorRate;
    r.wilson = saved.wilson;
    r.perRoundErrorRate = saved.perRoundErrorRate;
    r.roundLatencyUs = saved.roundLatencyUs;
    r.demDetectors = saved.demDetectors;
    r.demMechanisms = saved.demMechanisms;
    r.decoder = saved.decoder;
    r.streamed = saved.streamed;
    r.stream = saved.stream;
    r.chunks = saved.chunks;
    r.stoppedEarly = saved.stoppedEarly;
    r.sampleSeconds = saved.sampleSeconds;
    r.fromCheckpoint = true;
    return true;
}

CampaignEngine::CampaignEngine(ThreadPool& pool, ArtifactCache& cache)
    : pool_(pool), cache_(cache)
{}

CampaignResult
CampaignEngine::run(const CampaignSpec& spec,
                    const CampaignCheckpoint* resume,
                    const TaskCallback& onTaskDone)
{
    const auto t0 = std::chrono::steady_clock::now();
    const CacheStats before = cache_.stats();
    const size_t n = spec.tasks.size();

    CampaignResult result;
    result.name = spec.name;
    result.seed = spec.seed;
    result.tasks.resize(n);

    // Resolve codes, schedules, seeds and identities up front on the
    // coordinator: cheap, and bad specs fail before any job launches.
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    std::vector<TaskState> states(n);
    for (size_t i = 0; i < n; ++i) {
        TaskState& st = states[i];
        st.rt = std::move(resolved[i]);
        st.workers.resize(pool_.size());

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
    }

    EventQueue events;
    size_t remaining = 0;

    auto finalize = [&](size_t i) {
        TaskState& st = states[i];
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
        for (const auto& ctx : st.workers) {
            if (!ctx)
                continue;
            mergeStats(r.decoder, ctx->decoder.stats());
            if (ctx->stream) {
                r.streamed = true;
                r.stream.merge(ctx->stream->stats());
            }
        }
        if (r.streamed)
            r.stream.computePercentiles();
        if (onTaskDone)
            onTaskDone(r);
    };

    auto dispatchWave = [&](size_t i) -> bool {
        TaskState& st = states[i];
        std::vector<ChunkPlan> wave = st.sampler->nextWave();
        if (wave.empty())
            return false;
        // Cross-chunk syndrome staging: partition the wave into
        // groups of `stagingChunks` consecutive plans and submit one
        // decode job per group. Group boundaries depend only on the
        // wave's chunk indices — never on worker count or completion
        // order — so every decoder statistic stays deterministic.
        const size_t group = std::max<size_t>(
            size_t{1}, st.rt.spec->stop.stagingChunks);
        std::vector<std::vector<ChunkPlan>> jobs;
        for (size_t g = 0; g < wave.size(); g += group)
            jobs.emplace_back(
                wave.begin() + static_cast<std::ptrdiff_t>(g),
                wave.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(g + group, wave.size())));
        st.outstanding = jobs.size();
        for (std::vector<ChunkPlan>& job : jobs) {
            pool_.submit([&events, &st, i, plans = std::move(job)] {
                const auto c0 = std::chrono::steady_clock::now();
                Event e;
                e.task = i;
                try {
                    const int w = ThreadPool::workerIndex();
                    auto& ctx = st.workers[w >= 0
                                               ? static_cast<size_t>(w)
                                               : 0];
                    if (!ctx) {
                        ctx = std::make_unique<WorkerCtx>(
                            *st.rt.dem, st.rt.spec->bp);
                        if (st.rt.spec->stream.enabled)
                            ctx->stream =
                                std::make_unique<StreamDecoder>(
                                    ctx->decoder,
                                    st.rt.dem->numDetectors,
                                    streamOptionsFor(st.rt));
                    }
                    e.outcome = ctx->stream
                        ? runChunkGroupStreamed(
                              *st.rt.dem, plans.data(), plans.size(),
                              *ctx->stream, ctx->batches)
                        : runChunkGroup(*st.rt.dem, plans.data(),
                                        plans.size(), ctx->decoder,
                                        ctx->batches);
                    e.kind = EventKind::ChunkDone;
                } catch (const std::exception& ex) {
                    e.kind = EventKind::Failed;
                    e.error = ex.what();
                } catch (...) {
                    e.kind = EventKind::Failed;
                    e.error = "unknown sampling error";
                }
                e.seconds = elapsedSeconds(c0);
                events.push(std::move(e));
            });
        }
        return true;
    };

    // Checkpointed tasks are done before any job launches; the rest
    // get a resolve job (compile + DEM build through the shared cache).
    for (size_t i = 0; i < n; ++i) {
        if (applyCheckpoint(result.tasks[i], resume)) {
            states[i].finished = true;
            if (onTaskDone)
                onTaskDone(result.tasks[i]);
            continue;
        }
        ++remaining;
    }

    for (size_t i = 0; i < n; ++i) {
        if (states[i].finished)
            continue;
        TaskState& st = states[i];
        pool_.submit([this, &events, &st, i] {
            Event e;
            e.task = i;
            try {
                buildTaskArtifacts(st.rt, cache_);
                e.kind = EventKind::Resolved;
            } catch (const std::exception& ex) {
                e.kind = EventKind::Failed;
                e.error = ex.what();
            } catch (...) {
                e.kind = EventKind::Failed;
                e.error = "unknown build error";
            }
            events.push(std::move(e));
        });
    }

    while (remaining > 0) {
        Event e = events.pop();
        TaskState& st = states[e.task];
        if (st.finished)
            continue;
        switch (e.kind) {
          case EventKind::Resolved:
            st.resolved = true;
            st.sampler.emplace(st.rt.spec->stop, st.rt.taskSeed);
            if (!dispatchWave(e.task)) {
                finalize(e.task);
                --remaining;
            }
            break;
          case EventKind::ChunkDone:
            st.sampler->absorb(e.outcome);
            st.sampleSeconds += e.seconds;
            if (--st.outstanding == 0) {
                if (st.failed || st.sampler->done() ||
                    !dispatchWave(e.task)) {
                    finalize(e.task);
                    --remaining;
                }
            }
            break;
          case EventKind::Failed:
            if (result.tasks[e.task].error.empty())
                result.tasks[e.task].error = e.error;
            if (!st.resolved) {
                finalize(e.task);
                --remaining;
            } else {
                // A chunk failed: drain the rest of its wave before
                // finalizing so no job still references this task.
                st.failed = true;
                st.sampleSeconds += e.seconds;
                if (--st.outstanding == 0) {
                    finalize(e.task);
                    --remaining;
                }
            }
            break;
        }
    }

    // This run's share of the shared cache's lifetime counters.
    const CacheStats after = cache_.stats();
    for (const StatField<CacheStats>& f : CacheStats::fields())
        f.set(result.cache, std::get<size_t>(f.get(after)) -
                                std::get<size_t>(f.get(before)));
    result.wallSeconds = elapsedSeconds(t0);
    return result;
}

CampaignResult
runCampaign(const CampaignSpec& spec, const CampaignCheckpoint* resume,
            const CampaignEngine::TaskCallback& onTaskDone)
{
    ThreadPool pool(spec.threads);
    ArtifactCache cache;
    CampaignEngine engine(pool, cache);
    return engine.run(spec, resume, onTaskDone);
}

} // namespace cyclone
