/**
 * @file
 * One-task campaigns for the tests that estimate a single LER point.
 *
 * memoryTask builds a fixed-budget memory-experiment TaskSpec with an
 * explicit round latency; runTask runs one TaskSpec as a one-task
 * campaign and expects it to run clean. The campaign seed is the
 * task's only seed input, so a point's shots depend on `seed` alone,
 * at any thread count.
 */

#ifndef CYCLONE_TESTS_RUN_TASK_H
#define CYCLONE_TESTS_RUN_TASK_H

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "campaign/campaign.h"

namespace cyclone {

/**
 * Exactly `shots` shots of `code_name` (a campaign code name, e.g.
 * "surface3" or "bb72") at physical error `p` over `rounds` rounds
 * (0 = the code's distance), with `latency_us` of idle decoherence per
 * round (0 = none).
 */
inline TaskSpec
memoryTask(const std::string& code_name, double p, size_t rounds,
           size_t shots, double latency_us = 0.0)
{
    TaskSpec task;
    task.codeName = code_name;
    task.compileLatency = false;
    task.roundLatencyUs = latency_us;
    task.physicalError = p;
    task.rounds = rounds;
    task.stop.maxShots = shots;
    return task;
}

/** Run `task` alone under campaign seed `seed` on `threads` threads. */
inline TaskResult
runTask(TaskSpec task, uint64_t seed = CampaignSpec{}.seed,
        size_t threads = 2)
{
    CampaignSpec spec;
    spec.seed = seed;
    spec.threads = threads;
    spec.tasks.push_back(std::move(task));
    TaskResult result = runCampaign(spec).tasks.front();
    EXPECT_EQ(result.error, "");
    return result;
}

} // namespace cyclone

#endif // CYCLONE_TESTS_RUN_TASK_H
