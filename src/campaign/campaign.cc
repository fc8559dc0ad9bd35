#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "campaign/adaptive_sampler.h"
#include "campaign/campaign_driver.h"
#include "campaign/content_hash.h"
#include "campaign/fault_plan.h"
#include "circuit/memory_circuit.h"
#include "compiler/compiler.h"
#include "dem/dem_builder.h"
#include "noise/noise_model.h"
#include "noise/schedule_noise.h"
#include "qec/code_catalog.h"

namespace cyclone {

namespace {

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Map a task's StreamSpec onto StreamDecoderOptions. The deadline is
 * one window period — rounds x the task's (compiled or explicit)
 * round latency, the time the hardware takes to produce the next
 * window — so deadline misses mean "the decoder fell behind the
 * machine"; the deadline policy flushes after half of it (the
 * StreamDecoder default). Requires built artifacts (rt.latencyUs).
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
    o.deadlineUs = rt.latencyUs * static_cast<double>(o.roundsPerWindow);
    o.capacityChunks =
        std::max<size_t>(size_t{1}, rt.spec->stop.stagingChunks);
    return o;
}

/**
 * The in-process executor: each build and each staging group runs as
 * one job on the engine's pool and reports through an event queue.
 * Each pool thread keeps one decoder context for the run, reused
 * while the thread stays on a task (a fresh decoder per group costs
 * measurably more on large DEMs) and rebuilt when it takes up
 * another; a job hands the driver the counters it added.
 */
class LocalExecutor final : public CampaignExecutor
{
  public:
    LocalExecutor(ThreadPool& pool, ArtifactCache& cache)
        : pool_(pool), cache_(cache), contexts_(pool.size())
    {}

    void
    build(const std::vector<size_t>& tasks) override
    {
        for (const size_t i : tasks)
            pool_.submit([this, i] {
                push({.task = i, .error = errorOf([&] {
                          buildTaskArtifacts((*tasks_)[i].rt, cache_);
                      })});
            });
    }

    size_t
    rangeChunks(const StoppingRule& rule) const override
    {
        return std::max<size_t>(1, rule.stagingChunks);
    }

    void
    submit(size_t task, std::vector<ChunkPlan> range) override
    {
        pool_.submit([this, task, plans = std::move(range)] {
            push(runStagingGroup(task, (*tasks_)[task].rt, contexts_,
                                 plans.data(), plans.size()));
        });
    }

    Completion
    next() override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !events_.empty(); });
        Completion c = std::move(events_.front());
        events_.pop_front();
        return c;
    }

  private:
    void
    push(Completion c)
    {
        // Notify under the lock: the driver may pop this event, finish
        // the run and destroy the executor; holding the mutex through
        // the notify keeps the cv alive for the whole call.
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(std::move(c));
        cv_.notify_one();
    }

    ThreadPool& pool_;
    ArtifactCache& cache_;
    ThreadContexts contexts_;
    /** Completions from pool jobs to the driver. */
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Completion> events_;
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
    // kMinSumScale and kBpMessageClamp, absorbed as the doubles every
    // key has absorbed, so no checkpoint or spool record re-keys.
    h.absorb(0.9).absorb(50.0);
    h.absorb(uint64_t{t.stop.chunkShots});
    h.absorb(uint64_t{t.stop.chunksPerWave});
    h.absorb(uint64_t{t.stop.maxShots});
    h.absorb(t.stop.targetRelErr);
    h.absorb(uint64_t{t.stop.minFailures});
    h.absorb(rt.taskSeed);
    return h.digest();
}

} // namespace

DecodeContext::DecodeContext(size_t task, const ResolvedTask& rt)
    : task(task), decoder(*rt.dem, rt.spec->bp)
{
    if (rt.spec->stream.enabled)
        stream = std::make_unique<StreamDecoder>(
            decoder, rt.dem->numDetectors, streamOptionsFor(rt));
}

Completion
runStagingGroup(size_t task, const ResolvedTask& rt,
                ThreadContexts& contexts, const ChunkPlan* plans,
                size_t count)
{
    const auto c0 = std::chrono::steady_clock::now();
    const int w = ThreadPool::workerIndex();
    std::unique_ptr<DecodeContext>& ctx =
        contexts[w >= 0 ? static_cast<size_t>(w) : 0];
    Completion c{.task = task};
    c.error = errorOf([&] {
        if (!ctx || ctx->task != task) {
            ctx.reset(); // before the build, so two never coexist
            ctx = std::make_unique<DecodeContext>(task, rt);
        }
        c.outcome = ctx->stream
            ? runChunkGroupStreamed(*rt.dem, plans, count, *ctx->stream,
                                    ctx->batches)
            : runChunkGroup(*rt.dem, plans, count, ctx->decoder,
                            ctx->batches);
    });
    if (ctx) {
        c.decoder = ctx->decoder.takeStats();
        if (ctx->stream)
            c.stream = ctx->stream->takeStats();
    }
    c.seconds = elapsedSeconds(c0);
    return c;
}

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
    // The DEM below gets idle noise only when latency > 0: a NaN or
    // negative latency would run without it, silently.
    validateLatencyUs(latency, "task round latency");
    rt.latencyUs = latency;

    // Schedule-derived per-qubit idle twirls: explicit ones win;
    // otherwise measure the compiled IR. Only PerQubitSchedule mode
    // consumes them — the twirls are part of the DEM identity, so
    // uniform-mode tasks must not carry unhashed ones into the
    // circuit.
    std::vector<PauliTwirl> perQubitIdle;
    if (t.idleNoise == IdleNoiseMode::PerQubitSchedule) {
        perQubitIdle = t.perQubitIdle;
        if (!perQubitIdle.empty() &&
            perQubitIdle.size() != rt.code->numQubits()) {
            throw std::invalid_argument(
                "perQubitIdle must hold one twirl per data qubit (have " +
                std::to_string(perQubitIdle.size()) + ", need " +
                std::to_string(rt.code->numQubits()) + ")");
        }
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
TaskResult::setCounts(size_t failures, size_t shots)
{
    logicalErrorRate = estimateRate(failures, shots);
    wilson = wilsonHalfWidth(failures, shots);
    perRoundErrorRate = 0.0;
    if (rounds > 0 && shots > 0) {
        const double ler = std::min(logicalErrorRate.rate, 1.0 - 1e-12);
        perRoundErrorRate =
            1.0 - std::pow(1.0 - ler, 1.0 / static_cast<double>(rounds));
    }
}

namespace {

/** Copy DEM/compile-derived metadata of a built task into a result. */
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

} // namespace

CampaignResult
driveCampaign(const CampaignSpec& spec, CampaignExecutor& exec,
              const CampaignCheckpoint* resume,
              const CampaignEngine::TaskCallback& onTaskDone)
{
    const auto t0 = std::chrono::steady_clock::now();
    const size_t n = spec.tasks.size();
    CampaignResult result;
    result.name = spec.name;
    result.seed = spec.seed;
    result.tasks.resize(n);

    // Resolve codes, schedules, seeds and identities up front: cheap,
    // and bad specs fail before any work launches.
    std::vector<ResolvedTask> resolved = resolveTaskIdentities(spec);
    std::vector<TaskState> tasks(n);
    // The identity fields of task i's result, which this run resolves
    // whether the rest is sampled or restored.
    auto header = [&](size_t i) {
        const TaskSpec& t = spec.tasks[i];
        TaskResult& r = result.tasks[i];
        r.id = !t.id.empty() ? t.id : "task" + std::to_string(i);
        r.codeName =
            !t.codeName.empty() ? t.codeName : tasks[i].rt.code->name();
        r.architecture = t.compileLatency
            ? architectureName(t.architecture)
            : "explicit";
        r.physicalError = t.physicalError;
        r.rounds = tasks[i].rt.rounds;
        r.xBasis = t.xBasis;
        r.contentHash = tasks[i].rt.contentHash;
    };
    for (size_t i = 0; i < n; ++i) {
        tasks[i].rt = std::move(resolved[i]);
        header(i);
    }
    exec.bind(tasks);

    size_t remaining = n;
    auto done = [&](size_t i) {
        tasks[i].finished = true;
        --remaining;
        if (onTaskDone)
            onTaskDone(result.tasks[i]);
    };

    // Restore task i if `saved` holds it: from a checkpoint before
    // anything runs, or from the executor's journal once built, when
    // its metadata comes from its artifacts as a sampled task's does.
    auto restore = [&](size_t i, const CampaignCheckpoint* saved,
                       bool journaled) {
        if (saved == nullptr)
            return false;
        const auto it = saved->tasks.find(tasks[i].rt.contentHash);
        if (it == saved->tasks.end())
            return false;
        result.tasks[i] = it->second;
        header(i);
        result.tasks[i].fromCheckpoint = !journaled;
        if (journaled) {
            fillResolvedMetadata(result.tasks[i], tasks[i].rt);
            ++result.spool.journalRestores;
        }
        done(i);
        return true;
    };

    auto finalize = [&](size_t i) {
        TaskState& st = tasks[i];
        TaskResult& r = result.tasks[i];
        if (st.sampler) {
            r.setCounts(st.sampler->failures(), st.sampler->shots());
            r.chunks = st.sampler->chunksPlanned();
            r.stoppedEarly = st.sampler->stoppedEarly();
        }
        fillResolvedMetadata(r, st.rt);
        r.sampleSeconds = st.sampleSeconds;
        if (r.streamed)
            r.stream.computePercentiles();
        done(i);
        exec.finalized(result);
        faultMilestone("coord.task.finalized");
    };

    // Plan the next wave and cut it into contiguous ranges. Range
    // boundaries depend only on the wave's chunk indices — never on
    // worker count or completion order — so every decoder statistic
    // stays deterministic. Returns false when nothing is left to plan.
    auto dispatchWave = [&](size_t i) {
        TaskState& st = tasks[i];
        const std::vector<ChunkPlan> wave = st.sampler->nextWave();
        if (wave.empty())
            return false;
        const size_t step = exec.rangeChunks(st.rt.spec->stop);
        st.outstanding = (wave.size() + step - 1) / step;
        for (size_t g = 0; g < wave.size(); g += step)
            exec.submit(i, std::vector<ChunkPlan>(
                               wave.begin() + static_cast<std::ptrdiff_t>(g),
                               wave.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(g + step,
                                                           wave.size()))));
        faultMilestone("coord.wave.published");
        return true;
    };

    std::vector<size_t> toBuild;
    for (size_t i = 0; i < n; ++i)
        if (!restore(i, resume, false))
            toBuild.push_back(i);
    exec.build(toBuild);

    while (remaining > 0) {
        Completion c = exec.next();
        const size_t i = c.task;
        TaskState& st = tasks[i];
        if (st.finished)
            continue;
        TaskResult& r = result.tasks[i];
        if (r.error.empty())
            r.error = c.error;
        if (!st.sampler) {
            if (!r.error.empty()) {
                finalize(i);
            } else if (!restore(i, exec.journal(), true)) {
                st.sampler.emplace(st.rt.spec->stop, st.rt.taskSeed);
                if (!dispatchWave(i))
                    finalize(i);
            }
            continue;
        }
        st.sampleSeconds += c.seconds;
        mergeStats(r.decoder, c.decoder);
        if (c.stream) {
            r.streamed = true;
            r.stream.merge(*c.stream);
        }
        if (c.error.empty()) {
            st.sampler->absorb(c.outcome);
            faultMilestone("coord.record.merged");
        }
        // A failed range fails its task once the wave has drained.
        st.outstanding -= c.ranges;
        if (st.outstanding == 0 &&
            (!r.error.empty() || st.sampler->done() || !dispatchWave(i)))
            finalize(i);
    }

    result.wallSeconds = elapsedSeconds(t0);
    return result;
}

CampaignEngine::CampaignEngine(ThreadPool& pool, ArtifactCache& cache)
    : pool_(pool), cache_(cache)
{}

CampaignResult
CampaignEngine::run(const CampaignSpec& spec,
                    const CampaignCheckpoint* resume,
                    const TaskCallback& onTaskDone)
{
    const CacheStats before = cache_.stats();
    LocalExecutor exec(pool_, cache_);
    CampaignResult result = driveCampaign(spec, exec, resume, onTaskDone);

    // This run's share of the shared cache's lifetime counters.
    const CacheStats after = cache_.stats();
    for (const StatField<CacheStats>& f : CacheStats::fields()) {
        const FieldValue a = f.get(after);
        const FieldValue b = f.get(before);
        if (const double* seconds = std::get_if<double>(&a))
            f.set(result.cache, *seconds - std::get<double>(b));
        else
            f.set(result.cache, std::get<size_t>(a) - std::get<size_t>(b));
    }
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
