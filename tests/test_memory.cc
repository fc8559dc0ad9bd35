/**
 * @file
 * Integration tests for the Monte-Carlo memory experiment: one
 * fixed-budget TaskSpec per point, run as a one-task campaign.
 */

#include <gtest/gtest.h>

#include "run_task.h"

namespace cyclone {
namespace {

TEST(MemoryExperiment, NoNoiseNoFailures)
{
    const TaskResult result = runTask(memoryTask("surface3", 0.0, 3, 50));
    EXPECT_EQ(result.logicalErrorRate.successes, 0u);
    EXPECT_EQ(result.logicalErrorRate.trials, 50u);
    EXPECT_EQ(result.decoder.decodes, 50u);
}

TEST(MemoryExperiment, LerIncreasesWithPhysicalError)
{
    double previous = -1.0;
    for (double p : {0.002, 0.02, 0.08}) {
        const TaskResult result =
            runTask(memoryTask("surface3", p, 3, 600), 77);
        EXPECT_GE(result.logicalErrorRate.rate, previous)
            << "LER not monotone at p = " << p;
        previous = result.logicalErrorRate.rate;
    }
    EXPECT_GT(previous, 0.0);
}

TEST(MemoryExperiment, LatencyRaisesLer)
{
    const TaskSpec fast = memoryTask("surface3", 2e-3, 3, 800);
    TaskSpec slow = fast;
    slow.roundLatencyUs = 400000.0; // 0.4 s per round
    const TaskResult fast_result = runTask(fast, 99);
    const TaskResult slow_result = runTask(slow, 99);
    EXPECT_GT(slow_result.logicalErrorRate.rate,
              fast_result.logicalErrorRate.rate);
}

TEST(MemoryExperiment, DefaultsRoundsToDistance)
{
    const TaskResult result = runTask(memoryTask("surface3", 1e-3, 0, 10));
    EXPECT_EQ(result.rounds, 3u);
}

TEST(MemoryExperiment, PerRoundRateBelowPerShot)
{
    const TaskResult result =
        runTask(memoryTask("surface3", 0.03, 4, 500), 13);
    EXPECT_GT(result.logicalErrorRate.rate, 0.0);
    EXPECT_LT(result.perRoundErrorRate,
              result.logicalErrorRate.rate + 1e-12);
}

TEST(MemoryExperiment, DeterministicWithSeed)
{
    const TaskSpec task = memoryTask("surface3", 0.02, 2, 200);
    const TaskResult a = runTask(task, 4242);
    const TaskResult b = runTask(task, 4242);
    EXPECT_EQ(a.logicalErrorRate.successes,
              b.logicalErrorRate.successes);
}

TEST(MemoryExperiment, SingleVsMultiThreadSameDem)
{
    const TaskSpec task = memoryTask("surface3", 0.01, 2, 100);
    const TaskResult single = runTask(task, CampaignSpec{}.seed, 1);
    const TaskResult multi = runTask(task, CampaignSpec{}.seed, 2);
    EXPECT_EQ(single.demMechanisms, multi.demMechanisms);
    EXPECT_EQ(single.demDetectors, multi.demDetectors);
}

TEST(MemoryExperiment, ZeroChunkShotsMeansTheDefaultChunk)
{
    // stop.chunkShots = 0 selects the StoppingRule default, so it
    // samples and decodes the very same chunks.
    TaskSpec zero = memoryTask("surface3", 0.02, 2, 300);
    zero.stop.chunkShots = 0;
    const TaskSpec standard = memoryTask("surface3", 0.02, 2, 300);
    const TaskResult a = runTask(zero, 8);
    const TaskResult b = runTask(standard, 8);
    EXPECT_EQ(a.logicalErrorRate.trials, 300u);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.logicalErrorRate.successes, b.logicalErrorRate.successes);
    EXPECT_EQ(a.decoder.bpIterations, b.decoder.bpIterations);
}

TEST(MemoryExperiment, CustomChunkShotsRunsFullBudget)
{
    TaskSpec task = memoryTask("surface3", 0.02, 2, 250);
    task.stop.chunkShots = 100; // 3 chunks, last one short
    const TaskResult result = runTask(task, 55);
    EXPECT_EQ(result.logicalErrorRate.trials, 250u);
    EXPECT_EQ(result.decoder.decodes, 250u);
}

TEST(MemoryExperiment, Bb72SubThresholdSanity)
{
    // At p = 5e-4 with no latency, [[72,12,6]] should have a low but
    // measurable failure rate envelope; at p = 5e-3 it must be much
    // worse.
    const TaskResult low_r = runTask(memoryTask("bb72", 5e-4, 0, 200), 5);
    const TaskResult high_r =
        runTask(memoryTask("bb72", 5e-3, 0, 200), 5);
    EXPECT_GT(high_r.logicalErrorRate.rate,
              low_r.logicalErrorRate.rate);
    EXPECT_GT(high_r.logicalErrorRate.rate, 0.05);
    EXPECT_LT(low_r.logicalErrorRate.rate, 0.05);
}

} // namespace
} // namespace cyclone
