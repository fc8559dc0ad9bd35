/**
 * @file
 * Tests for the campaign engine: thread pool, deterministic adaptive
 * sampling, artifact-cache accounting, serialization, checkpoints,
 * and the spec-file format.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/atomic_file.h"
#include "campaign/campaign.h"
#include "campaign/campaign_io.h"
#include "campaign/thread_pool.h"
#include "common/kv_record.h"
#include "qec/classical_code.h"
#include "qec/hgp_code.h"

namespace cyclone {
namespace {

std::shared_ptr<const CssCode>
surface13()
{
    return std::make_shared<const CssCode>(
        makeHgpCode(ClassicalCode::repetition(3), 3));
}

TaskSpec
surfaceTask(double p, size_t max_shots, double target_rel_err = 0.0)
{
    TaskSpec task;
    task.code = surface13();
    task.compileLatency = false;
    task.physicalError = p;
    task.rounds = 3;
    task.stop.chunkShots = 100;
    task.stop.chunksPerWave = 2;
    task.stop.maxShots = max_shots;
    task.stop.targetRelErr = target_rel_err;
    return task;
}

TEST(ThreadPool, RunsEverySubmittedJob)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        EXPECT_EQ(ThreadPool::workerIndex(), -1);
        for (int i = 0; i < 500; ++i)
            pool.submit([&] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 500);
        // Jobs submitted from workers land on the submitter's deque.
        pool.submit([&] {
            EXPECT_GE(ThreadPool::workerIndex(), 0);
            pool.submit([&] { ++count; });
        });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 501);
    }
}

TEST(Campaign, FixedBudgetRunsExactly)
{
    CampaignSpec spec;
    spec.seed = 11;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.02, 500));
    const CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.tasks.size(), 1u);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_EQ(t.logicalErrorRate.trials, 500u);
    EXPECT_EQ(t.decoder.decodes, 500u);
    EXPECT_FALSE(t.stoppedEarly);
    EXPECT_EQ(t.rounds, 3u);
    EXPECT_GT(t.demDetectors, 0u);
}

TEST(Campaign, DeterministicAcrossThreadCounts)
{
    // Besides three surface13 points: a DEM of another size
    // (surface5), the min-sum rule, and the streaming front-end. The
    // one-thread run's single decode context is rebuilt each time its
    // thread takes up another task, so it crosses all three.
    CampaignSpec spec;
    spec.seed = 99;
    for (double p : {0.01, 0.03, 0.08})
        spec.tasks.push_back(surfaceTask(p, 600, 0.25));
    TaskSpec surface5 = surfaceTask(0.03, 600, 0.25);
    surface5.code = nullptr;
    surface5.codeName = "surface5";
    spec.tasks.push_back(surface5);
    TaskSpec minSum = surfaceTask(0.03, 600, 0.25);
    minSum.bp.variant = BpOptions::Variant::MinSum;
    spec.tasks.push_back(minSum);
    TaskSpec streamed = surfaceTask(0.03, 600, 0.25);
    streamed.stream.enabled = true;
    streamed.stream.streams = 4;
    spec.tasks.push_back(streamed);

    spec.threads = 1;
    const CampaignResult one = runCampaign(spec);
    spec.threads = 4;
    const CampaignResult four = runCampaign(spec);

    ASSERT_EQ(one.tasks.size(), four.tasks.size());
    for (size_t i = 0; i < one.tasks.size(); ++i) {
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  four.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  four.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].chunks, four.tasks[i].chunks);
        // Decoder totals are sums over chunks, so every counter
        // matches too — including the batch-pipeline ones (the memo
        // is scoped per chunk, never per worker).
        EXPECT_EQ(deterministicMismatch(one.tasks[i].decoder,
                                        four.tasks[i].decoder),
                  "")
            << "task " << i;
        EXPECT_EQ(one.tasks[i].stream.windows,
                  four.tasks[i].stream.windows)
            << "task " << i;
    }
    EXPECT_NE(one.tasks[3].demDetectors, one.tasks[0].demDetectors);
    EXPECT_TRUE(one.tasks[5].streamed);
    EXPECT_EQ(one.tasks[5].stream.windows,
              one.tasks[5].logicalErrorRate.trials);
}

TEST(Campaign, StagedPoolingIsDeterministicAndBitExact)
{
    // Pooling several chunks into one staged decode group is a pure
    // perf knob: staged groups are contiguous chunk-index slices of a
    // wave, so the estimate and every decoder counter must match at
    // any thread count — and the estimate must equal the unstaged
    // run's exactly (staging never changes a prediction).
    CampaignSpec unstaged;
    unstaged.seed = 99;
    unstaged.threads = 2;
    for (double p : {0.01, 0.03, 0.08})
        unstaged.tasks.push_back(surfaceTask(p, 600, 0.25));
    for (TaskSpec& t : unstaged.tasks)
        t.stop.chunksPerWave = 4;
    const CampaignResult plain = runCampaign(unstaged);

    CampaignSpec staged = unstaged;
    for (TaskSpec& t : staged.tasks)
        t.stop.stagingChunks = 2;
    staged.threads = 1;
    const CampaignResult one = runCampaign(staged);
    staged.threads = 4;
    const CampaignResult four = runCampaign(staged);

    ASSERT_EQ(one.tasks.size(), plain.tasks.size());
    for (size_t i = 0; i < one.tasks.size(); ++i) {
        // Staged vs unstaged: identical physics.
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  plain.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  plain.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(plain.tasks[i].decoder.stagedChunks, 0u);
        EXPECT_GT(one.tasks[i].decoder.stagedChunks, 0u);

        // Staged at one thread vs staged at four: identical, down to
        // the memo counters (groups are sliced by chunk index, never
        // by worker).
        EXPECT_EQ(one.tasks[i].logicalErrorRate.trials,
                  four.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(one.tasks[i].logicalErrorRate.successes,
                  four.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(deterministicMismatch(one.tasks[i].decoder,
                                        four.tasks[i].decoder),
                  "")
            << "task " << i;
        EXPECT_FALSE(one.tasks[i].decoder.backend.empty());
    }
}

TEST(Campaign, EarlyStopHonorsRelativeErrorTarget)
{
    const double target = 0.25;
    CampaignSpec spec;
    spec.seed = 5;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.08, 50000, target));
    const CampaignResult result = runCampaign(spec);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_TRUE(t.stoppedEarly);
    EXPECT_LT(t.logicalErrorRate.trials, 50000u);
    EXPECT_GE(t.logicalErrorRate.successes, 8u);
    EXPECT_LE(t.wilson, target * t.logicalErrorRate.rate + 1e-12);
}

TEST(Campaign, AdaptiveUsesFewerShotsThanFixedAtEqualWidth)
{
    // Fig. 5-style sweep: several points of very different difficulty.
    // The fixed-budget baseline must give every point the budget the
    // hardest point needs; adaptive stops each point at its own
    // convergence, so the sweep total shrinks at equal CI target.
    const double target = 0.2;
    CampaignSpec adaptive;
    adaptive.seed = 42;
    adaptive.threads = 2;
    for (double p : {0.02, 0.05, 0.12})
        adaptive.tasks.push_back(surfaceTask(p, 30000, target));
    const CampaignResult a = runCampaign(adaptive);

    size_t hardest = 0;
    for (const TaskResult& t : a.tasks) {
        EXPECT_TRUE(t.error.empty()) << t.error;
        EXPECT_TRUE(t.stoppedEarly);
        EXPECT_LE(t.wilson, target * t.logicalErrorRate.rate + 1e-12);
        hardest = std::max(hardest, t.logicalErrorRate.trials);
    }

    CampaignSpec fixed = adaptive;
    for (TaskSpec& t : fixed.tasks) {
        t.stop.maxShots = hardest;
        t.stop.targetRelErr = 0.0;
    }
    const CampaignResult f = runCampaign(fixed);
    EXPECT_EQ(f.totalShots(), hardest * fixed.tasks.size());
    EXPECT_LT(a.totalShots(), f.totalShots());

    // The point that needed the full budget replays the same chunk
    // streams in the fixed run: identical estimate, not just close.
    for (size_t i = 0; i < a.tasks.size(); ++i) {
        if (a.tasks[i].logicalErrorRate.trials == hardest) {
            EXPECT_EQ(a.tasks[i].logicalErrorRate.successes,
                      f.tasks[i].logicalErrorRate.successes);
        }
    }
}

TEST(Campaign, CacheAccounting)
{
    // Tasks A and B are identical points; C differs only in p. All
    // three share one architecture compile; A and B share a DEM.
    CampaignSpec spec;
    spec.seed = 3;
    spec.threads = 2;
    auto code = surface13();
    for (double p : {0.02, 0.02, 0.05}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::BaselineGrid;
        task.compileLatency = true;
        task.physicalError = p;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    const CampaignResult result = runCampaign(spec);
    for (const TaskResult& t : result.tasks) {
        EXPECT_TRUE(t.error.empty()) << t.error;
        EXPECT_GT(t.roundLatencyUs, 0.0);
    }
    EXPECT_EQ(result.cache.compileMisses, 1u);
    EXPECT_EQ(result.cache.compileHits, 2u);
    EXPECT_EQ(result.cache.demMisses, 2u);
    EXPECT_EQ(result.cache.demHits, 1u);
    // Identical tasks get distinct seeds, not identical streams.
    EXPECT_NE(result.tasks[0].contentHash, result.tasks[1].contentHash);
}

TEST(Campaign, CacheReportsBuildSeconds)
{
    // A cold run times its compile and DEM builds; a second run on the
    // warm cache builds nothing and reports no build time. The timing
    // fields reach the JSON cache block through the field table.
    CampaignSpec spec;
    spec.seed = 5;
    spec.threads = 2;
    TaskSpec task = surfaceTask(0.02, 100);
    task.architecture = Architecture::BaselineGrid;
    task.compileLatency = true;
    spec.tasks.push_back(std::move(task));

    ThreadPool pool(2);
    ArtifactCache cache;
    CampaignEngine engine(pool, cache);
    const CampaignResult cold = engine.run(spec);
    ASSERT_TRUE(cold.tasks[0].error.empty()) << cold.tasks[0].error;
    EXPECT_EQ(cold.cache.demMisses, 1u);
    EXPECT_GT(cold.cache.compileSeconds, 0.0);
    EXPECT_GT(cold.cache.demBuildSeconds, 0.0);
    const std::string json = campaignResultToJson(cold);
    EXPECT_NE(json.find("\"compile_seconds\": "), std::string::npos);
    EXPECT_NE(json.find("\"dem_build_seconds\": "), std::string::npos);

    const CampaignResult warm = engine.run(spec);
    EXPECT_EQ(warm.cache.demMisses, 0u);
    EXPECT_EQ(warm.cache.demHits, 1u);
    EXPECT_EQ(warm.cache.compileSeconds, 0.0);
    EXPECT_EQ(warm.cache.demBuildSeconds, 0.0);
}

TEST(Campaign, JsonAndCsvOutputs)
{
    CampaignSpec spec;
    spec.name = "io-check";
    spec.seed = 8;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.05, 200));
    spec.tasks.back().id = "point-a";
    const CampaignResult result = runCampaign(spec);

    const std::string json = campaignResultToJson(result);
    EXPECT_NE(json.find("\"campaign\": \"io-check\""), std::string::npos);
    EXPECT_NE(json.find("\"id\": \"point-a\""), std::string::npos);
    EXPECT_NE(json.find("\"shots\": 200"), std::string::npos);
    EXPECT_NE(json.find("\"trivial_fraction\""), std::string::npos);
    EXPECT_NE(json.find("\"memo_hit_rate\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_bp_iterations\""), std::string::npos);
    EXPECT_NE(json.find("\"staged_chunks\""), std::string::npos);
    EXPECT_NE(json.find("\"backend\": \""), std::string::npos);
    EXPECT_EQ(json.find("\"error\""), std::string::npos);
    // Cache byte/store accounting and spool stats are part of the
    // document even for purely local runs (zeros, but present).
    EXPECT_NE(json.find("\"compile_store_hits\""), std::string::npos);
    EXPECT_NE(json.find("\"compile_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"dem_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"spool\": {\"shards_published\": 0"),
              std::string::npos);

    const std::string csv = campaignResultToCsv(result);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + result.tasks.size());
    EXPECT_NE(csv.find("point-a"), std::string::npos);
    EXPECT_NE(csv.find("staged_chunks,backend,"), std::string::npos);
}

TEST(Campaign, CheckpointRoundtrip)
{
    const std::string path = "test_campaign_checkpoint.tmp";
    CampaignSpec spec;
    spec.seed = 21;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.03, 300));
    spec.tasks.push_back(surfaceTask(0.06, 300));

    const CampaignResult first = runCampaign(spec);
    ASSERT_TRUE(saveCheckpoint(first, path));

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(loadCheckpoint(path, checkpoint));
    EXPECT_EQ(checkpoint.tasks.size(), 2u);

    const CampaignResult resumed = runCampaign(spec, &checkpoint);
    for (size_t i = 0; i < resumed.tasks.size(); ++i) {
        EXPECT_TRUE(resumed.tasks[i].fromCheckpoint);
        EXPECT_EQ(resumed.tasks[i].logicalErrorRate.successes,
                  first.tasks[i].logicalErrorRate.successes);
        EXPECT_EQ(resumed.tasks[i].logicalErrorRate.trials,
                  first.tasks[i].logicalErrorRate.trials);
        // Every decoder field rides the checkpoint, the backend that
        // decoded the shots included.
        EXPECT_EQ(deterministicMismatch(resumed.tasks[i].decoder,
                                        first.tasks[i].decoder),
                  "");
        EXPECT_EQ(resumed.tasks[i].sampleSeconds,
                  first.tasks[i].sampleSeconds);
    }
    // Nothing re-sampled, so the caches never got touched.
    EXPECT_EQ(resumed.cache.demMisses, 0u);
    EXPECT_EQ(resumed.totalShots(), first.totalShots());

    // Changing a task's definition invalidates only that task.
    CampaignSpec edited = spec;
    edited.tasks[1].physicalError = 0.07;
    const CampaignResult partial = runCampaign(edited, &checkpoint);
    EXPECT_TRUE(partial.tasks[0].fromCheckpoint);
    EXPECT_FALSE(partial.tasks[1].fromCheckpoint);

    // The staging knob is a perf knob, not physics: changing it must
    // not invalidate checkpointed results.
    CampaignSpec restaged = spec;
    for (TaskSpec& t : restaged.tasks)
        t.stop.stagingChunks = 3;
    const CampaignResult reused = runCampaign(restaged, &checkpoint);
    EXPECT_TRUE(reused.tasks[0].fromCheckpoint);
    EXPECT_TRUE(reused.tasks[1].fromCheckpoint);

    std::remove(path.c_str());
}

/**
 * Checkpoints are self-describing key=value records: a record written
 * before a counter existed loads it as zero, a key written by a newer
 * build is skipped, and every field a record carries restores exactly.
 * A file that fails its CRC, or one in the legacy positional format,
 * is rejected — its tasks simply run again.
 */
TEST(Campaign, CheckpointRecordsAreSelfDescribing)
{
    const std::string path = "test_checkpoint_format.tmp";
    const char* magic = "cyclone-campaign-checkpoint v2";
    auto load = [&](const std::string& text, CampaignCheckpoint& out) {
        EXPECT_NO_THROW(writeFileAtomic(path, text));
        const bool loaded = loadCheckpoint(path, out);
        std::remove(path.c_str());
        return loaded;
    };
    auto saved = [&](const TaskResult& t) {
        CampaignResult result;
        result.tasks.push_back(t);
        EXPECT_TRUE(saveCheckpoint(result, path));
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        std::remove(path.c_str());
        return text.str();
    };

    KvRecord rec("task");
    rec.putHex("content_hash", 0xdeadbeef);
    rec.put("shots", size_t{1000});
    rec.put("failures", size_t{7});
    rec.put("rounds", size_t{6});
    rec.put("round_latency_us", 12.5);
    rec.put("stopped_early", true);
    rec.put("sample_seconds", 1.25);
    rec.put("decoder.decodes", size_t{1000});
    rec.put("decoder.osd_failures", size_t{2});
    rec.put("decoder.backend", std::string("avx512"));
    rec.put("decoder.counter_from_a_newer_build", size_t{9});
    rec.put("streamed", true);
    rec.put("stream.windows", size_t{1000});
    rec.put("stream.latency_p99_us", 30.0);
    const std::string text = formatRecords(magic, {rec});

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(load(text, checkpoint));
    ASSERT_EQ(checkpoint.tasks.size(), 1u);
    const TaskResult& t = checkpoint.tasks.at(0xdeadbeef);
    EXPECT_TRUE(t.fromCheckpoint);
    EXPECT_EQ(t.logicalErrorRate.trials, 1000u);
    EXPECT_EQ(t.logicalErrorRate.successes, 7u);
    EXPECT_GT(t.wilson, 0.0);
    EXPECT_GT(t.perRoundErrorRate, 0.0);
    EXPECT_EQ(t.rounds, 6u);
    EXPECT_DOUBLE_EQ(t.roundLatencyUs, 12.5);
    EXPECT_TRUE(t.stoppedEarly);
    EXPECT_DOUBLE_EQ(t.sampleSeconds, 1.25);
    EXPECT_EQ(t.decoder.decodes, 1000u);
    EXPECT_EQ(t.decoder.osdFailures, 2u);
    EXPECT_EQ(t.decoder.backend, "avx512");
    EXPECT_TRUE(t.streamed);
    EXPECT_EQ(t.stream.windows, 1000u);
    // Percentiles restore verbatim: the histogram behind them is not
    // checkpointed.
    EXPECT_DOUBLE_EQ(t.stream.p99Us, 30.0);
    // Absent keys read as zero.
    EXPECT_EQ(t.demDetectors, 0u);
    EXPECT_EQ(t.chunks, 0u);
    EXPECT_EQ(t.decoder.bpIterations, 0u);
    EXPECT_EQ(t.stream.slabSlots, 0u);

    // What a checkpoint restores, it writes back byte for byte.
    const std::string once = saved(t);
    CampaignCheckpoint reloaded;
    ASSERT_TRUE(load(once, reloaded));
    EXPECT_EQ(saved(reloaded.tasks.at(0xdeadbeef)), once);

    // A flipped byte or a truncated file fails the CRC.
    std::string flipped = text;
    flipped[flipped.find("shots=1000") + 6] = '2';
    EXPECT_FALSE(load(flipped, checkpoint));
    EXPECT_FALSE(load(text.substr(0, text.size() / 2), checkpoint));
    // A malformed value inside an intact document is rejected too.
    KvRecord bad("task");
    bad.putHex("content_hash", 1);
    bad.put("shots", std::string("many"));
    EXPECT_FALSE(load(formatRecords(magic, {bad}), checkpoint));
    // The legacy positional format is not read: its tasks re-run.
    EXPECT_FALSE(load("cyclone-campaign-checkpoint v1\n"
                      "task 00000000deadbeef 6 12.5 10 20 1000 7 4 1 "
                      "1000 950 50 2 1.25\n",
                      checkpoint));
}

TEST(Campaign, SpecParsingExpandsSweeps)
{
    const char* text = R"(
name = sweep
seed = 123
threads = 2

[task]
id = pt
code = bb72
arch = cyclone, baseline
p = 1e-3, 2e-3, 4e-3
max_shots = 50
target_rel_err = 0.1
staging_chunks = 4

[task]
code = surface3
arch = none
latency_us = 100
p = 5e-3
)";
    const CampaignSpec spec = parseCampaignSpec(text);
    EXPECT_EQ(spec.name, "sweep");
    EXPECT_EQ(spec.seed, 123u);
    EXPECT_EQ(spec.threads, 2u);
    ASSERT_EQ(spec.tasks.size(), 7u);
    EXPECT_EQ(spec.tasks[0].id, "pt/cyclone/p=0.001");
    EXPECT_EQ(spec.tasks[0].architecture, Architecture::Cyclone);
    EXPECT_TRUE(spec.tasks[0].compileLatency);
    EXPECT_EQ(spec.tasks[3].architecture, Architecture::BaselineGrid);
    EXPECT_DOUBLE_EQ(spec.tasks[4].physicalError, 2e-3);
    EXPECT_EQ(spec.tasks[0].stop.maxShots, 50u);
    EXPECT_DOUBLE_EQ(spec.tasks[0].stop.targetRelErr, 0.1);
    EXPECT_EQ(spec.tasks[0].stop.stagingChunks, 4u);
    const TaskSpec& explicitTask = spec.tasks[6];
    EXPECT_FALSE(explicitTask.compileLatency);
    EXPECT_DOUBLE_EQ(explicitTask.roundLatencyUs, 100.0);
    EXPECT_EQ(explicitTask.codeName, "surface3");
    EXPECT_EQ(explicitTask.stop.stagingChunks, 1u);

    EXPECT_THROW(parseCampaignSpec("[task]\narch = warp\ncode = bb72\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(
                     "[task]\ncode = bb72\nstaging_chunks = 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(
                     "[task]\ncode = bb72\nstaging_chunks = -2\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("nonsense\n"), std::runtime_error);
    EXPECT_THROW(parseCampaignSpec(""), std::runtime_error);
}

TEST(Campaign, SpecParsesSwapCapacityAndIdleNoiseKeys)
{
    const char* text = R"(
[task]
code = bb72
arch = cyclone
swap = ion
grid-capacity = 7
idle_noise = per-qubit
max_shots = 10
)";
    const CampaignSpec spec = parseCampaignSpec(text);
    ASSERT_EQ(spec.tasks.size(), 1u);
    EXPECT_EQ(spec.tasks[0].swap, SwapKind::IonSwap);
    EXPECT_EQ(spec.tasks[0].gridCapacity, 7u);
    EXPECT_EQ(spec.tasks[0].idleNoise, IdleNoiseMode::PerQubitSchedule);

    // Underscore alias and defaults.
    const CampaignSpec alias = parseCampaignSpec(
        "[task]\ncode = bb72\nswap = gate\ngrid_capacity = 3\n"
        "idle_noise = uniform\n");
    EXPECT_EQ(alias.tasks[0].swap, SwapKind::GateSwap);
    EXPECT_EQ(alias.tasks[0].gridCapacity, 3u);
    EXPECT_EQ(alias.tasks[0].idleNoise, IdleNoiseMode::UniformLatency);

    EXPECT_THROW(parseCampaignSpec("[task]\ncode = bb72\nswap = warp\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\ngrid-capacity = 0\n"),
        std::runtime_error);
    // stoull would silently wrap a negative value; it must throw.
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\ngrid-capacity = -3\n"),
        std::runtime_error);
    EXPECT_THROW(
        parseCampaignSpec("[task]\ncode = bb72\nidle_noise = maybe\n"),
        std::runtime_error);
}

TEST(Campaign, SwapAndCapacityReachTheCompiler)
{
    // Fig. 13 / Fig. 21 mechanics from spec keys alone: capacity and
    // swap kind change the compiled latency, and distinct settings get
    // distinct compile-cache entries.
    CampaignSpec spec;
    spec.seed = 31;
    spec.threads = 2;
    auto code = surface13();
    for (size_t capacity : {size_t(3), size_t(5)}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::BaselineGrid;
        task.compileLatency = true;
        task.gridCapacity = capacity;
        task.physicalError = 0.02;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    for (SwapKind swap : {SwapKind::GateSwap, SwapKind::IonSwap}) {
        TaskSpec task;
        task.code = code;
        task.architecture = Architecture::Cyclone;
        task.compileLatency = true;
        task.swap = swap;
        task.physicalError = 0.02;
        task.rounds = 2;
        task.stop.maxShots = 100;
        spec.tasks.push_back(std::move(task));
    }
    const CampaignResult result = runCampaign(spec);
    for (const TaskResult& t : result.tasks)
        EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_NE(result.tasks[0].roundLatencyUs,
              result.tasks[1].roundLatencyUs);
    EXPECT_NE(result.tasks[2].roundLatencyUs,
              result.tasks[3].roundLatencyUs);
    // Four distinct (arch, swap, capacity) points: no compile sharing.
    EXPECT_EQ(result.cache.compileMisses, 4u);
    // The compile profile surfaces per task.
    EXPECT_GT(result.tasks[0].compileMakespanUs, 0.0);
    EXPECT_GT(result.tasks[0].compileBreakdown.total(), 0.0);
    EXPECT_GT(result.tasks[0].compileParallelFraction, 0.0);
}

TEST(Campaign, PerQubitIdleRunsEndToEndFromSpecText)
{
    // The acceptance path: compile -> IR -> per-qubit twirls -> DEM ->
    // decode, selected from the INI.
    const char* text = R"(
name = per-qubit-e2e
seed = 13
threads = 2

[task]
code = surface3
arch = cyclone
idle_noise = per-qubit
p = 5e-3
rounds = 3
max_shots = 200
chunk_shots = 100
)";
    const CampaignResult result = runCampaign(parseCampaignSpec(text));
    ASSERT_EQ(result.tasks.size(), 1u);
    const TaskResult& t = result.tasks[0];
    EXPECT_TRUE(t.error.empty()) << t.error;
    EXPECT_EQ(t.logicalErrorRate.trials, 200u);
    EXPECT_GT(t.roundLatencyUs, 0.0);
    EXPECT_GT(t.demMechanisms, 0u);
    EXPECT_EQ(t.decoder.decodes, 200u);
}

TEST(Campaign, PerQubitIdleWithoutCompileFails)
{
    CampaignSpec spec;
    spec.threads = 1;
    TaskSpec task = surfaceTask(0.02, 100);
    task.idleNoise = IdleNoiseMode::PerQubitSchedule;
    spec.tasks.push_back(std::move(task));
    const CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.tasks.size(), 1u);
    EXPECT_FALSE(result.tasks[0].error.empty());
    EXPECT_NE(result.tasks[0].error.find("per-qubit"),
              std::string::npos);
}

TEST(Campaign, NegativeRoundLatencyFails)
{
    // latency > 0 is what adds idle noise, so a negative (or NaN)
    // latency must fail its task rather than run without idle noise.
    CampaignSpec spec;
    spec.threads = 1;
    TaskSpec task = surfaceTask(0.02, 100);
    task.roundLatencyUs = -5.0;
    spec.tasks.push_back(std::move(task));
    const CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.tasks.size(), 1u);
    EXPECT_NE(result.tasks[0].error.find("latency"), std::string::npos)
        << result.tasks[0].error;
    EXPECT_EQ(result.tasks[0].logicalErrorRate.trials, 0u);
}

TEST(Campaign, PerQubitIdleDegeneratesToUniformOnEqualWindows)
{
    // Identical idle windows must reproduce the uniform-latency model
    // exactly: same DEM, same chunk streams, same counts.
    const double latency = 60000.0;
    const double p = 0.004;
    auto code = surface13();

    CampaignSpec uniform;
    uniform.seed = 77;
    uniform.threads = 2;
    {
        TaskSpec task;
        task.code = code;
        task.compileLatency = false;
        task.roundLatencyUs = latency;
        task.physicalError = p;
        task.rounds = 3;
        task.stop.maxShots = 400;
        task.stop.chunkShots = 100;
        uniform.tasks.push_back(std::move(task));
    }

    CampaignSpec perQubit = uniform;
    {
        TaskSpec& task = perQubit.tasks[0];
        task.idleNoise = IdleNoiseMode::PerQubitSchedule;
        const double t_coh = coherenceTimeSeconds(p);
        task.perQubitIdle.assign(
            code->numQubits(), twirlDecoherence(latency, t_coh, t_coh));
    }

    const CampaignResult a = runCampaign(uniform);
    const CampaignResult b = runCampaign(perQubit);
    ASSERT_TRUE(a.tasks[0].error.empty()) << a.tasks[0].error;
    ASSERT_TRUE(b.tasks[0].error.empty()) << b.tasks[0].error;
    EXPECT_EQ(a.tasks[0].demMechanisms, b.tasks[0].demMechanisms);
    EXPECT_EQ(a.tasks[0].logicalErrorRate.trials,
              b.tasks[0].logicalErrorRate.trials);
    EXPECT_EQ(a.tasks[0].logicalErrorRate.successes,
              b.tasks[0].logicalErrorRate.successes);
    EXPECT_EQ(a.tasks[0].decoder.bpIterations,
              b.tasks[0].decoder.bpIterations);
}

TEST(Campaign, ResolvesSurfaceCodeNames)
{
    const CssCode code = resolveCampaignCode("surface3");
    EXPECT_EQ(code.numQubits(), 13u);
    EXPECT_THROW(resolveCampaignCode("surfaceX"), std::exception);
    EXPECT_THROW(resolveCampaignCode("nope"), std::exception);
}

TEST(Campaign, BadSpecsThrowBeforeAnyWorkLaunches)
{
    CampaignSpec spec;
    spec.tasks.push_back(surfaceTask(0.02, 50));
    spec.tasks[0].code = nullptr;
    spec.tasks[0].codeName = "";
    EXPECT_THROW(runCampaign(spec), std::invalid_argument);
    spec.tasks[0].codeName = "not-a-code";
    EXPECT_THROW(runCampaign(spec), std::exception);
}

TEST(Campaign, SpecParsesSpoolAndShardKeys)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = dist\n"
        "spool = /tmp/my-spool\n"
        "workers = 3\n"
        "lease_seconds = 12.5\n"
        "[task]\n"
        "code = surface3\n");
    EXPECT_EQ(spec.spool, "/tmp/my-spool");
    EXPECT_EQ(spec.workers, 3u);
    EXPECT_EQ(spec.leaseSeconds, 12.5);
    ASSERT_EQ(spec.tasks.size(), 1u);

    EXPECT_THROW(parseCampaignSpec("name = x\nlease_seconds = 0\n"
                                   "[task]\ncode = surface3\n"),
                 std::runtime_error);
}

TEST(Campaign, ContentHashGoldenPerBpVariant)
{
    // The hash keys checkpoints and spool records. Product-sum tasks
    // were re-keyed once when the variant's tanh/log left libm (its
    // results moved at the ulp level); the min-sum key is the one
    // libm-era builds computed.
    CampaignSpec spec;
    spec.seed = 5;
    spec.tasks.push_back(surfaceTask(0.02, 100));
    spec.tasks.push_back(surfaceTask(0.02, 100));
    spec.tasks[1].bp.variant = BpOptions::Variant::MinSum;
    const std::vector<ResolvedTask> rt = resolveTaskIdentities(spec);
    EXPECT_EQ(rt[0].contentHash, 0xa27af10d94877c74ull);
    EXPECT_EQ(rt[1].contentHash, 0xa12dcbfe6cbb096cull);
}

TEST(Campaign, SpecRejectsUnknownKeysWithLineNumbers)
{
    // New campaign/task keys must never be silently ignored: a typo'd
    // "spool" or "staging_chunks" would otherwise quietly run the
    // whole sweep in the wrong mode.
    try {
        parseCampaignSpec("name = x\nspoool = /tmp/z\n"
                          "[task]\ncode = surface3\n");
        FAIL() << "expected unknown-key error";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 2"),
                  std::string::npos)
            << ex.what();
        EXPECT_NE(std::string(ex.what()).find("spoool"),
                  std::string::npos)
            << ex.what();
    }
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "staging_chunk = 4\n");
        FAIL() << "expected unknown-key error";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 4"),
                  std::string::npos)
            << ex.what();
    }

    // Keys of deleted settings (each had one value in use, now fixed)
    // are unknown too: a stale spec fails, naming the key, instead of
    // running without what it asked for.
    auto expectUnknown = [](const std::string& text, const char* key,
                            const char* line) {
        try {
            parseCampaignSpec(text);
            FAIL() << "expected unknown-key error for " << key;
        } catch (const std::runtime_error& ex) {
            const std::string what = ex.what();
            EXPECT_NE(what.find(line), std::string::npos) << what;
            EXPECT_NE(what.find(key), std::string::npos) << what;
        }
    };
    for (const char* key : {"retry_attempts", "retry_base_ms", "fault_plan"})
        expectUnknown(std::string("name = x\n") + key +
                          " = 1\n[task]\ncode = surface3\n",
                      key, "line 2");
    for (const char* key :
         {"shard_chunks", "stream_deadline_us", "stream_flush_after_us"})
        expectUnknown(std::string("name = x\n[task]\ncode = surface3\n") +
                          key + " = 1\n",
                      key, "line 4");
}

TEST(Campaign, SpecParsesStreamingKeys)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = serve\n"
        "[task]\n"
        "code = surface3\n"
        "streaming = on\n"
        "streams = 12\n"
        "stream_flush = deadline\n");
    ASSERT_EQ(spec.tasks.size(), 1u);
    const StreamSpec& s = spec.tasks[0].stream;
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.streams, 12u);
    EXPECT_TRUE(s.deadlineFlush);

    // Defaults: off, full-wave.
    const CampaignSpec plain =
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n");
    EXPECT_FALSE(plain.tasks[0].stream.enabled);
    EXPECT_FALSE(plain.tasks[0].stream.deadlineFlush);

    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\nstreaming = up\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\nstreams = 0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCampaignSpec("name = x\n[task]\n"
                                   "code = surface3\n"
                                   "stream_flush = sometimes\n"),
                 std::runtime_error);
}

TEST(Campaign, StreamingIsAServingKnobNotAnIdentity)
{
    // Streaming changes how shots are served, never what comes out:
    // the content hash that keys checkpoints must ignore it.
    CampaignSpec a;
    a.tasks.push_back(surfaceTask(0.02, 100));
    CampaignSpec b = a;
    b.tasks[0].stream.enabled = true;
    b.tasks[0].stream.streams = 16;
    b.tasks[0].stream.deadlineFlush = true;
    const uint64_t ha = resolveTaskIdentities(a)[0].contentHash;
    const uint64_t hb = resolveTaskIdentities(b)[0].contentHash;
    EXPECT_EQ(ha, hb);
}

TEST(Campaign, StreamedCampaignBitIdenticalToOffline)
{
    // The whole engine path: a streamed run must produce exactly the
    // offline run's shot/failure counts at any stream count — the
    // end-to-end form of the decoder-level bit-identity guarantee —
    // while reporting streaming telemetry.
    CampaignSpec offline;
    offline.seed = 31;
    offline.threads = 2;
    offline.tasks.push_back(surfaceTask(0.03, 400));
    offline.tasks.push_back(surfaceTask(0.06, 400, 0.25));
    // A real round period, so the auto deadline (rounds x latency)
    // is meaningful. Set in both specs: it feeds the idle-noise
    // model, and the comparison needs identical physics.
    for (TaskSpec& t : offline.tasks)
        t.roundLatencyUs = 12.0;
    const CampaignResult want = runCampaign(offline);

    CampaignSpec streamed = offline;
    for (TaskSpec& t : streamed.tasks) {
        t.stream.enabled = true;
        t.stream.streams = 5;
        t.stop.stagingChunks = 2;
    }
    const CampaignResult got = runCampaign(streamed);

    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (size_t i = 0; i < got.tasks.size(); ++i) {
        EXPECT_TRUE(got.tasks[i].error.empty()) << got.tasks[i].error;
        EXPECT_EQ(got.tasks[i].logicalErrorRate.trials,
                  want.tasks[i].logicalErrorRate.trials)
            << "task " << i;
        EXPECT_EQ(got.tasks[i].logicalErrorRate.successes,
                  want.tasks[i].logicalErrorRate.successes)
            << "task " << i;
        EXPECT_EQ(got.tasks[i].chunks, want.tasks[i].chunks);
        EXPECT_EQ(got.tasks[i].stoppedEarly, want.tasks[i].stoppedEarly);

        EXPECT_FALSE(want.tasks[i].streamed);
        EXPECT_TRUE(got.tasks[i].streamed);
        const StreamDecodeStats& s = got.tasks[i].stream;
        EXPECT_EQ(s.windows, got.tasks[i].logicalErrorRate.trials);
        EXPECT_GT(s.roundsPushed, s.windows);
        EXPECT_GT(s.slabSlots, 0u);
        EXPECT_GT(s.slabFilled, 0u);
        EXPECT_GT(s.deadlineUs, 0.0)
            << "deadline must default to the window period";
        EXPECT_GT(s.p50Us, 0.0);
        EXPECT_GE(s.p99Us, s.p50Us);
        EXPECT_GE(s.p999Us, s.p99Us);
        EXPECT_GE(s.latencyMaxUs, s.p999Us * 0.8);
    }

    // And streamed results are thread-count independent too.
    streamed.threads = 4;
    const CampaignResult wide = runCampaign(streamed);
    for (size_t i = 0; i < wide.tasks.size(); ++i) {
        EXPECT_EQ(wide.tasks[i].logicalErrorRate.successes,
                  got.tasks[i].logicalErrorRate.successes);
        EXPECT_EQ(wide.tasks[i].stream.windows,
                  got.tasks[i].stream.windows);
    }
}

TEST(Campaign, StreamedTaskSurvivesCheckpointRoundtrip)
{
    const std::string path = "test_campaign_stream_checkpoint.tmp";
    CampaignSpec spec;
    spec.seed = 77;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.04, 300));
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].stream.streams = 4;

    const CampaignResult first = runCampaign(spec);
    ASSERT_TRUE(first.tasks[0].streamed);
    ASSERT_TRUE(saveCheckpoint(first, path));

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(loadCheckpoint(path, checkpoint));
    const CampaignResult resumed = runCampaign(spec, &checkpoint);
    std::remove(path.c_str());

    ASSERT_EQ(resumed.tasks.size(), 1u);
    const TaskResult& t = resumed.tasks[0];
    EXPECT_TRUE(t.fromCheckpoint);
    EXPECT_TRUE(t.streamed);
    EXPECT_EQ(t.stream.windows, first.tasks[0].stream.windows);
    EXPECT_EQ(t.stream.deadlineMisses,
              first.tasks[0].stream.deadlineMisses);
    EXPECT_NEAR(t.stream.latencySumUs,
                first.tasks[0].stream.latencySumUs,
                1e-9 * first.tasks[0].stream.latencySumUs + 1e-4);
    EXPECT_NEAR(t.stream.latencyMaxUs,
                first.tasks[0].stream.latencyMaxUs, 1e-4);
    EXPECT_NEAR(t.stream.p50Us, first.tasks[0].stream.p50Us, 1e-4);
    EXPECT_NEAR(t.stream.p99Us, first.tasks[0].stream.p99Us, 1e-4);
    EXPECT_EQ(t.stream.slabSlots, first.tasks[0].stream.slabSlots);
    EXPECT_EQ(t.stream.slabFilled, first.tasks[0].stream.slabFilled);
}

TEST(Campaign, StreamingStatsReachJsonAndCsv)
{
    CampaignSpec spec;
    spec.name = "stream-io";
    spec.seed = 5;
    spec.threads = 2;
    spec.tasks.push_back(surfaceTask(0.05, 200));
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].stream.streams = 3;
    const CampaignResult result = runCampaign(spec);

    const std::string json = campaignResultToJson(result);
    EXPECT_NE(json.find("\"streaming\": {\"windows\": 200"),
              std::string::npos);
    EXPECT_NE(json.find("\"latency_p50_us\""), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99_us\""), std::string::npos);
    EXPECT_NE(json.find("\"slab_occupancy\""), std::string::npos);
    EXPECT_NE(json.find("\"deadline_misses\""), std::string::npos);
    EXPECT_NE(json.find("\"flushes_full\""), std::string::npos);

    const std::string csv = campaignResultToCsv(result);
    EXPECT_NE(csv.find(",stream_windows,"), std::string::npos);
    EXPECT_NE(csv.find(",stream_latency_p99_us,"), std::string::npos);
    EXPECT_NE(csv.find(",stream_slab_occupancy,"), std::string::npos);

    // An offline task emits no streaming JSON object.
    CampaignSpec plain = spec;
    plain.tasks[0].stream.enabled = false;
    const std::string plainJson =
        campaignResultToJson(runCampaign(plain));
    EXPECT_EQ(plainJson.find("\"streaming\""), std::string::npos);
}

TEST(Campaign, SpecNumericErrorsNameLineAndKey)
{
    // A malformed count must fail naming the offending line AND key —
    // "bad number" alone sends spec authors grepping.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "staging_chunks = banana\n");
        FAIL() << "expected numeric-diagnostic error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("staging_chunks"), std::string::npos)
            << what;
        EXPECT_NE(what.find("banana"), std::string::npos) << what;
    }

    // Trailing garbage must be rejected, not silently truncated —
    // std::stoull would happily read "12abc" as 12.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "rounds = 12abc\n");
        FAIL() << "expected trailing-garbage error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("rounds"), std::string::npos) << what;
    }

    // Negative counts (stoull would wrap them to huge values).
    try {
        parseCampaignSpec("name = x\nthreads = -2\n");
        FAIL() << "expected negative-count error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("threads"), std::string::npos) << what;
    }

    // Out-of-range and non-finite reals keep the same diagnostic
    // shape: stod reads "inf" and "nan", which no key means.
    for (const char* value : {"1e999", "inf", "nan"}) {
        try {
            parseCampaignSpec(std::string("name = x\n[task]\n"
                                          "code = surface3\n"
                                          "latency_us = ") +
                              value + "\n");
            FAIL() << "expected out-of-range error for " << value;
        } catch (const std::runtime_error& ex) {
            const std::string what = ex.what();
            EXPECT_NE(what.find("line 4"), std::string::npos) << what;
            EXPECT_NE(what.find("latency_us"), std::string::npos)
                << what;
        }
    }
    try {
        parseCampaignSpec("name = x\nlease_seconds = inf\n"
                          "[task]\ncode = surface3\n");
        FAIL() << "expected non-finite error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("lease_seconds"), std::string::npos) << what;
    }

    // Bad items inside a p-list get the list's line and key too.
    try {
        parseCampaignSpec("name = x\n[task]\ncode = surface3\n"
                          "p = 1e-3, oops, 4e-3\n");
        FAIL() << "expected p-list error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("line 4"), std::string::npos) << what;
        EXPECT_NE(what.find("oops"), std::string::npos) << what;
    }
}

TEST(Campaign, SpecRejectsDuplicateTaskIds)
{
    // Two explicit duplicates: the error names the clashing id and
    // both offending [task] lines.
    try {
        parseCampaignSpec("name = x\n"
                          "[task]\n"
                          "id = point\n"
                          "code = surface3\n"
                          "[task]\n"
                          "id = point\n"
                          "code = surface3\n");
        FAIL() << "expected duplicate-id error";
    } catch (const std::runtime_error& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("duplicate task id 'point'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("line 5"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }

    // An explicit id colliding with another task's auto id
    // ("task<N>") is caught too.
    EXPECT_THROW(parseCampaignSpec("name = x\n"
                                   "[task]\n"
                                   "code = surface3\n"
                                   "[task]\n"
                                   "id = task0\n"
                                   "code = surface3\n"),
                 std::runtime_error);

    // Sweep-expanded ids stay distinct, so sweeps still parse.
    const CampaignSpec ok = parseCampaignSpec(
        "name = x\n[task]\nid = s\ncode = surface3\n"
        "p = 1e-3, 2e-3\n");
    EXPECT_EQ(ok.tasks.size(), 2u);
}

} // namespace
} // namespace cyclone
