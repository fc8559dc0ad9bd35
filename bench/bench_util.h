/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks.
 *
 * Every binary regenerates one data figure of the paper: each
 * benchmark row is one point of the figure, with the figure's values
 * exposed as benchmark counters. Monte-Carlo depth is tuned for a
 * complete run in minutes; set CYCLONE_SHOTS to override the per-point
 * shot count and CYCLONE_FULL=1 to enable the full code list and
 * denser sweeps.
 */

#ifndef CYCLONE_BENCH_BENCH_UTIL_H
#define CYCLONE_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "core/cyclone.h"

namespace cyclone {
namespace bench {

/** Per-point Monte-Carlo shots (CYCLONE_SHOTS overrides). */
inline size_t
shots(size_t fallback)
{
    if (const char* env = std::getenv("CYCLONE_SHOTS")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return static_cast<size_t>(v);
    }
    return fallback;
}

/** Whether the full (slow) sweep was requested. */
inline bool
fullMode()
{
    const char* env = std::getenv("CYCLONE_FULL");
    return env != nullptr && env[0] == '1';
}

/** Compile one round under an architecture with default options. */
inline CompileResult
compileArch(const CssCode& code, const SyndromeSchedule& schedule,
            Architecture arch)
{
    CodesignConfig config;
    config.architecture = arch;
    return compileCodesign(code, schedule, config);
}

/**
 * Run a latency-coupled memory experiment: `n_shots` shots at
 * physical error `p` with `latency_us` of idle decoherence per round,
 * as a one-task campaign. Throws if the task fails.
 */
inline TaskResult
runPoint(const CssCode& code, const SyndromeSchedule& schedule,
         double p, double latency_us, size_t n_shots,
         uint64_t seed = 0xc0de)
{
    TaskSpec task;
    task.code = std::make_shared<const CssCode>(code);
    task.schedule = std::make_shared<const SyndromeSchedule>(schedule);
    task.compileLatency = false;
    task.roundLatencyUs = latency_us;
    task.physicalError = p;
    task.stop.maxShots = n_shots;
    // Min-sum BP: cheaper per edge than the product-sum default
    // (default_over_minsum in BENCH_decoder.json), and in paired
    // comparisons on the same shots neither rule left fewer failures
    // at every point (README.md, "Product-sum and min-sum").
    task.bp.variant = BpOptions::Variant::MinSum;
    CampaignSpec spec;
    spec.seed = seed;
    spec.tasks.push_back(std::move(task));
    TaskResult result = runCampaign(spec).tasks.front();
    if (!result.error.empty())
        throw std::runtime_error("memory experiment failed: " +
                                 result.error);
    return result;
}

/** Attach the standard LER counters to a state. */
inline void
setLerCounters(benchmark::State& state, const TaskResult& r)
{
    state.counters["LER"] = r.logicalErrorRate.rate;
    state.counters["LER_err"] = r.wilson;
    state.counters["shots"] =
        static_cast<double>(r.logicalErrorRate.trials);
    state.counters["rounds"] = static_cast<double>(r.rounds);
}

/**
 * Default stopping rule of the campaign-driven figures: the fallback
 * (or CYCLONE_SHOTS) is the per-point cap, and a 10% relative-error
 * target lets easy points stop at a wave boundary well before it.
 */
inline StoppingRule
figureRule(size_t fallback)
{
    StoppingRule rule;
    rule.chunkShots = 64;
    rule.chunksPerWave = 2;
    rule.maxShots = shots(fallback);
    rule.targetRelErr = 0.1;
    rule.minFailures = 8;
    return rule;
}

/**
 * One-line stderr summary of a figure campaign: realized shots vs the
 * fixed budget the pre-campaign loops would have burned, plus cache
 * activity.
 */
inline void
reportCampaignSummary(const CampaignResult& result, size_t fixed_budget);

/**
 * A figure campaign that runs on first use, so --benchmark_list_tests
 * and --help stay instant: benchmark rows are registered from the
 * spec alone and the campaign executes once when the first selected
 * row actually runs.
 */
class LazyCampaign
{
  public:
    LazyCampaign(CampaignSpec spec, size_t fixed_budget)
        : spec_(std::move(spec)), fixedBudget_(fixed_budget)
    {}

    const TaskResult&
    task(size_t index)
    {
        std::call_once(once_, [&] {
            result_ = runCampaign(spec_);
            reportCampaignSummary(result_, fixedBudget_);
        });
        return result_.tasks[index];
    }

  private:
    CampaignSpec spec_;
    size_t fixedBudget_ = 0;
    std::once_flag once_;
    CampaignResult result_;
};

/**
 * Register one benchmark row per campaign task. Each row reports the
 * standard LER counters; `extra` adds figure-specific ones. Tasks
 * that failed to build or sample surface as skipped-with-error rows
 * instead of silent LER=0 points.
 */
inline void
registerCampaignBenchmarks(
    CampaignSpec spec, size_t fixed_budget,
    std::function<void(benchmark::State&, const TaskResult&, size_t)>
        extra = nullptr)
{
    auto campaign =
        std::make_shared<LazyCampaign>(spec, fixed_budget);
    for (size_t i = 0; i < spec.tasks.size(); ++i) {
        benchmark::RegisterBenchmark(
            spec.tasks[i].id.c_str(),
            [campaign, extra, i](benchmark::State& state) {
                const TaskResult& r = campaign->task(i);
                if (!r.error.empty()) {
                    state.SkipWithError(r.error.c_str());
                    return;
                }
                for (auto _ : state) {
                }
                setLerCounters(state, r);
                if (extra)
                    extra(state, r, i);
            })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

inline void
reportCampaignSummary(const CampaignResult& r, size_t fixed_budget)
{
    const size_t used = r.totalShots();
    const double saved = fixed_budget > 0
        ? 100.0 * (1.0 - static_cast<double>(used) /
                       static_cast<double>(fixed_budget))
        : 0.0;
    std::fprintf(stderr,
                 "[%s] %zu tasks, %zu shots (fixed budget %zu, saved "
                 "%.0f%%), wall %.1fs, compile cache %zu hit / %zu "
                 "miss, dem cache %zu hit / %zu miss\n",
                 r.name.c_str(), r.tasks.size(), used, fixed_budget,
                 saved, r.wallSeconds, r.cache.compileHits,
                 r.cache.compileMisses, r.cache.demHits,
                 r.cache.demMisses);
}

} // namespace bench
} // namespace cyclone

#endif // CYCLONE_BENCH_BENCH_UTIL_H
