/**
 * @file
 * Crash-safety tests for the campaign stack: FaultPlan grammar and
 * firing semantics, retry-policy backoff bounds, CRC-protected
 * artifact blobs, atomic writes that fail under a file-size cap
 * (nothing truncated is published), and — the core of the suite — a
 * seeded chaos harness that kills a self-executing coordinator at
 * every commit point of the spool protocol and asserts that a
 * takeover coordinator finishes the campaign with results
 * byte-identical to an uninterrupted single-process run; an
 * in-process run killed after a finalize resumes from its checkpoint
 * the same way.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/artifact_cache.h"
#include "campaign/atomic_file.h"
#include "campaign/campaign.h"
#include "campaign/campaign_io.h"
#include "campaign/coordinator.h"
#include "campaign/fault_plan.h"
#include "campaign/retry_policy.h"
#include "campaign/spool.h"
#include "common/crc32.h"
#include "dem/dem.h"
#include "expect_tasks.h"

namespace cyclone {
namespace {

/** Fresh scratch directory under TMPDIR, removed on destruction. */
struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const char* tag)
    {
        const char* base = std::getenv("TMPDIR");
        path = std::string(base != nullptr ? base : "/tmp") +
            "/cyclone-" + tag + "-" + std::to_string(::getpid());
        std::string cmd = "rm -rf '" + path + "'";
        std::system(cmd.c_str());
        ::mkdir(path.c_str(), 0777);
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        std::system(cmd.c_str());
    }
};

/** Every entry of `dir`, dot files included, sorted. */
std::vector<std::string>
dirEntries(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/**
 * Run `body` in a forked child whose files cannot grow past `cap`
 * bytes: a soft RLIMIT_FSIZE with SIGXFSZ ignored, so a write past the
 * cap fails with EFBIG instead of killing the process. Forking keeps
 * the limit away from the other tests. Returns what `body` reports
 * went wrong, "" when nothing did.
 */
std::string
underFileSizeCap(rlim_t cap, const std::function<std::string()>& body)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "pipe failed";
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit lim;
        ::getrlimit(RLIMIT_FSIZE, &lim);
        lim.rlim_cur = cap;
        std::string what = "cannot set RLIMIT_FSIZE";
        if (::setrlimit(RLIMIT_FSIZE, &lim) == 0) {
            try {
                what = body();
            } catch (const std::exception& ex) {
                what = std::string("unexpected throw: ") + ex.what();
            }
        }
        (void)!::write(fds[1], what.data(), what.size());
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string what;
    char buf[256];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
        what.append(buf, static_cast<size_t>(n));
    ::close(fds[0]);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        what += " (the capped child died)";
    return what;
}

/** Disarm the process-global fault plan when a test scope exits, so
 *  a failing assertion can never leak faults into later tests. */
struct FaultPlanGuard
{
    ~FaultPlanGuard() { installFaultPlan(FaultPlan{}); }
};

/**
 * The chaos campaign: small enough that one schedule runs in well
 * under a second, rich enough to cross every commit point — two
 * tasks, multi-wave sampling, an adaptive early stop, staging.
 */
const char* kChaosSpec = R"(name = chaos
seed = 29

[task]
id = a
code = surface3
arch = none
p = 0.03
chunk_shots = 40
chunks_per_wave = 4
max_shots = 480
staging_chunks = 2
bp = minsum

[task]
id = b
code = surface3
arch = none
p = 0.08
chunk_shots = 48
chunks_per_wave = 3
max_shots = 2000
target_rel_err = 0.35
bp = minsum
)";

constexpr double kChaosLease = 0.25;

/** Fork a self-executing coordinator child with `plan` installed.
 *  Returns its exit code: 0 (completed), kFaultCrashExitCode
 *  (injected crash), or 3 (unexpected exception — a test failure). */
int
runChaosChild(const std::string& spoolDir, const std::string& plan)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        installFaultPlan(FaultPlan::parse(plan));
        CampaignSpec spec = parseCampaignSpec(kChaosSpec);
        spec.spool = spoolDir;
        spec.leaseSeconds = kChaosLease;
        CoordinatorOptions copts;
        copts.selfExecute = true;
        copts.threads = 2;
        copts.owner = "chaos-child";
        int rc = 0;
        try {
            runDistributedCampaign(spec, kChaosSpec, nullptr, nullptr,
                                   copts);
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "chaos child: %s\n", ex.what());
            rc = 3;
        }
        ::_exit(rc);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

/** Fault-free takeover of whatever the child left behind. */
CampaignResult
takeoverAndFinish(const std::string& spoolDir)
{
    CampaignSpec spec = parseCampaignSpec(kChaosSpec);
    spec.spool = spoolDir;
    spec.leaseSeconds = kChaosLease;
    CoordinatorOptions copts;
    copts.selfExecute = true;
    copts.threads = 2;
    copts.owner = "chaos-takeover";
    return runDistributedCampaign(spec, kChaosSpec, nullptr, nullptr,
                                  copts);
}

/**
 * The campaign JSON with every timing/topology-dependent field
 * zeroed: what remains must be BYTE-identical between a clean
 * single-process run and any crash-and-takeover execution.
 */
std::string
normalizedJson(CampaignResult r)
{
    r.wallSeconds = 0.0;
    r.cache = CacheStats{};
    r.spool = SpoolStats{};
    for (TaskResult& t : r.tasks)
        t.sampleSeconds = 0.0;
    return campaignResultToJson(r);
}

TEST(Crc32, MatchesKnownVectorsAndChains)
{
    // The IEEE 802.3 check value.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0u);

    // Seed-chaining equals one-shot over the concatenation.
    const std::string a = "cyclone";
    const std::string b = "-spool";
    EXPECT_EQ(crc32(b.data(), b.size(), crc32(a)), crc32(a + b));
}

TEST(FaultPlanParse, GrammarRoundTrip)
{
    const FaultPlan plan = FaultPlan::parse(
        " seed=99 ; spool.record.commit:torn@2*3 ;"
        " coord.record.merged:crash_before ;"
        " spool.io.write:transient*2@5 ;"
        " spool.heartbeat:freeze ");
    EXPECT_EQ(plan.seed, 99u);
    ASSERT_EQ(plan.rules.size(), 4u);

    EXPECT_EQ(plan.rules[0].point, "spool.record.commit");
    EXPECT_EQ(plan.rules[0].action, FaultAction::Torn);
    EXPECT_EQ(plan.rules[0].firstHit, 2u);
    EXPECT_EQ(plan.rules[0].count, 3u);

    EXPECT_EQ(plan.rules[1].point, "coord.record.merged");
    EXPECT_EQ(plan.rules[1].action, FaultAction::CrashBefore);
    EXPECT_EQ(plan.rules[1].firstHit, 1u);
    EXPECT_EQ(plan.rules[1].count, 1u);

    EXPECT_EQ(plan.rules[2].action, FaultAction::Transient);
    EXPECT_EQ(plan.rules[2].firstHit, 5u);
    EXPECT_EQ(plan.rules[2].count, 2u);

    EXPECT_EQ(plan.rules[3].action, FaultAction::Freeze);
    EXPECT_GT(plan.rules[3].count, 1u << 20)
        << "freeze defaults to forever";

    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("  ;  ").empty());
    EXPECT_THROW(FaultPlan::parse("no-colon"), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("p:bogus-action"),
                 std::runtime_error);
    EXPECT_THROW(FaultPlan::parse("p:crash@zero"), std::runtime_error);
    // Counts parse as spec counts do: digits only, nothing after them.
    for (const char* bad : {"p:crash_before@-1", "p:crash@2x",
                            "p:torn*3junk", "seed=12abc"})
        EXPECT_THROW(FaultPlan::parse(bad), std::runtime_error) << bad;
}

TEST(FaultPlanFiring, RulesFireOnTheScheduledHitsOnly)
{
    FaultPlanGuard guard;
    installFaultPlan(
        FaultPlan::parse("test.point:transient@2*2;other:freeze"));

    // Hits 1..5 of the named point: only 2 and 3 fire.
    EXPECT_FALSE(faultPoint("test.point").transient);
    EXPECT_TRUE(faultPoint("test.point").transient);
    EXPECT_TRUE(faultPoint("test.point").transient);
    EXPECT_FALSE(faultPoint("test.point").transient);
    EXPECT_FALSE(faultPoint("test.point").transient);

    // Unrelated points never fire; freeze fires forever.
    EXPECT_FALSE(faultPoint("unrelated").transient);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(faultPoint("other").freeze);

    // Reinstalling resets the hit counters.
    installFaultPlan(FaultPlan::parse("test.point:transient@2*2"));
    EXPECT_FALSE(faultPoint("test.point").transient);
    EXPECT_TRUE(faultPoint("test.point").transient);

    // Disarmed: nothing fires.
    installFaultPlan(FaultPlan{});
    EXPECT_FALSE(faultPoint("test.point").transient);
}

TEST(FaultPlanFiring, TornLengthIsDeterministicAndShort)
{
    FaultPlanGuard guard;
    installFaultPlan(FaultPlan::parse("seed=5;p:torn"));
    for (size_t size : {1ul, 2ul, 17ul, 4096ul}) {
        const size_t n = faultTornLength("spool.record.commit", size);
        EXPECT_LT(n, size) << "torn writes must drop >= 1 byte";
        EXPECT_EQ(n, faultTornLength("spool.record.commit", size))
            << "same point+size => same cut";
    }
}

TEST(RetryPolicy, DelaysAreBoundedAndDeterministic)
{
    using P = RetryPolicy;
    const double ceiling = P::kMaxDelaySeconds * (1.0 + P::kJitterFraction);
    for (size_t attempt = 1; attempt <= 40; ++attempt) {
        const double d = P::delayFor(attempt);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, ceiling) << "attempt " << attempt;
        EXPECT_EQ(d, P::delayFor(attempt)) << "must be pure";
    }

    // Attempt 1 is the base +- jitter; attempt 2 doubles it.
    const double d1 = P::delayFor(1);
    EXPECT_GE(d1, P::kBaseDelaySeconds * (1.0 - P::kJitterFraction));
    EXPECT_LE(d1, P::kBaseDelaySeconds * (1.0 + P::kJitterFraction));
    const double d2 = P::delayFor(2);
    EXPECT_GE(d2, 2.0 * P::kBaseDelaySeconds * (1.0 - P::kJitterFraction));
    EXPECT_LE(d2, 2.0 * P::kBaseDelaySeconds * (1.0 + P::kJitterFraction));

    // Jitter varies across attempts.
    EXPECT_NE(P::delayFor(1) * 2.0, P::delayFor(2));

    // Huge attempt numbers must not overflow the exponent.
    EXPECT_LE(P::delayFor(100000), ceiling);
}

TEST(RetryPolicy, RunWithRetryRecoversWithinBudget)
{
    size_t calls = 0;
    size_t retries = 0;
    const int got = runWithRetry(
        "read", "/spool/x",
        [&] {
            if (++calls < 3)
                throw TransientIoError("EIO");
            return 42;
        },
        [&](size_t) { ++retries; });
    EXPECT_EQ(got, 42);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(retries, 2u);
}

TEST(RetryPolicy, RunWithRetryGivesUpWithTypedError)
{
    size_t calls = 0;
    try {
        runWithRetry("rename", "/spool/open/t0000-s00001", [&]() -> int {
            ++calls;
            throw TransientIoError("ENOSPC");
        });
        FAIL() << "must throw";
    } catch (const SpoolIoError& ex) {
        EXPECT_EQ(calls, 4u) << "bounded attempts";
        EXPECT_EQ(ex.operation, "rename");
        EXPECT_EQ(ex.path, "/spool/open/t0000-s00001");
        EXPECT_EQ(ex.attempts, 4u);
        EXPECT_NE(std::string(ex.what()).find("rename"),
                  std::string::npos);
        EXPECT_NE(std::string(ex.what()).find("t0000-s00001"),
                  std::string::npos);
    }

    // Non-transient errors propagate immediately, unretried.
    calls = 0;
    EXPECT_THROW(runWithRetry("parse", "/x",
                              [&]() -> int {
                                  ++calls;
                                  throw std::runtime_error("corrupt");
                              }),
                 std::runtime_error);
    EXPECT_EQ(calls, 1u);
}

TEST(ArtifactCacheQuarantine, CorruptBlobIsQuarantinedAndRebuilt)
{
    ScratchDir scratch("blob-quarantine");

    DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.02, {0, 2}, 1});

    int builds = 0;
    auto build = [&] {
        ++builds;
        return dem;
    };

    ArtifactCache first;
    first.attachStore(scratch.path);
    first.getOrBuildDem(0xbeef, build);
    ASSERT_EQ(builds, 1);

    // Flip one payload byte of the published blob: the checksum in
    // the header must catch it.
    char blobName[64];
    std::snprintf(blobName, sizeof blobName, "dem-%016llx.bin",
                  0xbeefull);
    const std::string blobPath = scratch.path + "/" + blobName;
    std::string bytes = readWholeFile(blobPath);
    ASSERT_GT(bytes.size(), 21u);
    bytes[bytes.size() - 1] ^= 0x40;
    writeFileAtomic(blobPath, bytes);

    ArtifactCache second;
    second.attachStore(scratch.path);
    const auto got = second.getOrBuildDem(0xbeef, build);
    EXPECT_EQ(builds, 2) << "corrupt blob must rebuild";
    EXPECT_EQ(second.stats().quarantinedBlobs, 1u);
    EXPECT_EQ(got->numDetectors, 3u);

    // The bad bytes moved into quarantine/ and a fresh blob took
    // their place: a third cache store-hits without rebuilding.
    EXPECT_TRUE(Spool(scratch.path).exists("quarantine/" +
                                           std::string(blobName)));
    ArtifactCache third;
    third.attachStore(scratch.path);
    third.getOrBuildDem(0xbeef, build);
    EXPECT_EQ(builds, 2) << "rebuild must republish a good blob";
    EXPECT_EQ(third.stats().demStoreHits, 1u);
    EXPECT_EQ(third.stats().quarantinedBlobs, 0u);
}

// Under a file-size cap a write fails with EFBIG. A 1,000-byte payload
// sits in the stream's buffer until the flush, a 10,000-byte one goes
// straight to write(2); either way the writer must throw, keep the old
// file and leave no tmp file.
TEST(AtomicFile, FailedWriteKeepsTheOldFileAndLeavesNoTmp)
{
    ScratchDir scratch("atomic-capped");
    const std::string path = scratch.path + "/file.txt";
    const std::string old = "the previous contents\n";
    writeFileAtomic(path, old);

    const std::string failure = underFileSizeCap(100, [&] {
        for (size_t size : {1000, 10000}) {
            try {
                writeFileAtomic(path, std::string(size, 'x'));
                return std::to_string(size) + " bytes written past the cap";
            } catch (const std::exception&) {
            }
        }
        return std::string();
    });
    EXPECT_EQ(failure, "");
    EXPECT_EQ(readWholeFile(path), old);
    EXPECT_EQ(dirEntries(scratch.path),
              std::vector<std::string>{"file.txt"});
}

TEST(AtomicFile, ReadErrorsThrow)
{
    // A missing file fails at open(2), a directory at read(2); neither
    // may come back as an empty or partial document.
    ScratchDir scratch("atomic-read");
    EXPECT_THROW(readWholeFile(scratch.path + "/missing"),
                 std::runtime_error);
    EXPECT_THROW(readWholeFile(scratch.path), std::runtime_error);
    writeFileAtomic(scratch.path + "/empty", "");
    EXPECT_EQ(readWholeFile(scratch.path + "/empty"), "");
}

TEST(AtomicFile, FailedCheckpointSaveKeepsTheLastGoodOne)
{
    ScratchDir scratch("ckpt-capped");
    const std::string path = scratch.path + "/campaign.ckpt";
    auto oneTask = [](uint64_t hash) {
        CampaignResult r;
        TaskResult& t = r.tasks.emplace_back();
        t.contentHash = hash;
        t.setCounts(17, 1200);
        return r;
    };
    ASSERT_TRUE(saveCheckpoint(oneTask(0xa11ce), path));

    const std::string failure = underFileSizeCap(100, [&] {
        return std::string(saveCheckpoint(oneTask(0xb0b), path)
                               ? "saved past the cap"
                               : "");
    });
    EXPECT_EQ(failure, "");
    CampaignCheckpoint restored;
    ASSERT_TRUE(loadCheckpoint(path, restored));
    ASSERT_EQ(restored.tasks.size(), 1u);
    ASSERT_EQ(restored.tasks.count(0xa11ce), 1u);
    EXPECT_EQ(restored.tasks.at(0xa11ce).logicalErrorRate.trials, 1200u);
    EXPECT_EQ(dirEntries(scratch.path),
              std::vector<std::string>{"campaign.ckpt"});
}

TEST(AtomicFile, FailedBlobPublishLeavesTheStoreEmpty)
{
    ScratchDir scratch("blob-capped");
    DetectorErrorModel dem;
    dem.numDetectors = 20;
    dem.numObservables = 1;
    for (uint32_t i = 0; i < 17; ++i) {
        std::vector<uint32_t> detectors = {i, i + 1};
        if (i < 4)
            detectors.push_back(i + 2);
        dem.mechanisms.push_back({0.01, detectors, i % 2});
    }
    ASSERT_EQ(serializeDem(dem).size(), 604u)
        << "a blob under 1 KB, which the writer's stream buffers";

    // The publish fails, yet the build still hands back its DEM.
    const std::string failure = underFileSizeCap(100, [&] {
        ArtifactCache capped;
        capped.attachStore(scratch.path);
        const auto got = capped.getOrBuildDem(0xcafe, [&] { return dem; });
        return std::string(got->mechanisms.size() == 17
                               ? ""
                               : "wrong DEM from the build");
    });
    EXPECT_EQ(failure, "");
    EXPECT_TRUE(dirEntries(scratch.path).empty())
        << "neither a blob nor a tmp file";

    int builds = 0;
    ArtifactCache second;
    second.attachStore(scratch.path);
    second.getOrBuildDem(0xcafe, [&] {
        ++builds;
        return dem;
    });
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(second.stats().quarantinedBlobs, 0u);
}

TEST(ChaosSchedules, EveryCrashPointRecoversBitIdentically)
{
    // The deterministic core of the chaos suite: one schedule per
    // commit point and failure mode of the protocol, each run as a
    // crashed coordinator child followed by a clean takeover.
    const std::vector<std::string> schedules = {
        // Coordinator milestones.
        "coord.lease.acquired:crash_before",
        "coord.prebuilt:crash_before",
        "coord.wave.published:crash_after@1",
        "coord.wave.published:crash_before@2",
        "coord.record.merged:crash_after@1",
        "coord.record.merged:crash_before@3",
        "coord.task.finalized:crash_after@1",
        // Journal commits: before, after, torn.
        "spool.journal.commit:crash_before@1",
        "spool.journal.commit:crash_after@1",
        "spool.journal.commit:torn@2",
        // Shard descriptor publishes.
        "spool.descriptor.commit:crash_before@2",
        "spool.descriptor.commit:crash_after@3",
        // Record commits, including torn records that must be
        // caught by the CRC, quarantined, and re-executed.
        "spool.record.commit:crash_before@1",
        "spool.record.commit:crash_after@2",
        "spool.record.commit:torn@1",
        "spool.record.commit:torn@3",
        // The DONE marker and the manifest.
        "spool.done.commit:crash_before",
        "spool.done.commit:crash_after",
        "spool.manifest.commit:crash_after",
        // Transient I/O absorbed by the retry policy (no crash).
        "spool.io.write:transient*2@3",
        // Artifact store publishes.
        "cache.blob.commit:crash_before@1",
        // Frozen heartbeats: the process lives, its leases rot.
        "spool.heartbeat:freeze;coord.lease.heartbeat:freeze",
    };
    ASSERT_GE(schedules.size(), 20u)
        << "the chaos suite must cover at least 20 schedules";

    CampaignSpec refSpec = parseCampaignSpec(kChaosSpec);
    refSpec.threads = 2;
    const CampaignResult reference = runCampaign(refSpec);
    for (const TaskResult& t : reference.tasks)
        ASSERT_TRUE(t.error.empty()) << t.error;
    const std::string referenceJson = normalizedJson(reference);

    ScratchDir scratch("chaos");
    for (size_t i = 0; i < schedules.size(); ++i) {
        SCOPED_TRACE("schedule " + std::to_string(i) + ": " +
                     schedules[i]);
        const std::string dir =
            scratch.path + "/s" + std::to_string(i);
        const int rc = runChaosChild(dir, schedules[i]);
        EXPECT_TRUE(rc == 0 || rc == kFaultCrashExitCode)
            << "child exit " << rc;
        const CampaignResult merged = takeoverAndFinish(dir);
        expectTasksIdentical(reference, merged);
        EXPECT_EQ(referenceJson, normalizedJson(merged));
    }
}

TEST(ChaosSchedules, SeededRandomSchedulesRecoverBitIdentically)
{
    // Randomized defense-in-depth over the same harness: a seeded
    // generator composes multi-rule plans across commit points.
    const char* points[] = {
        "spool.descriptor.commit", "spool.record.commit",
        "spool.journal.commit",    "spool.done.commit",
        "coord.wave.published",    "coord.record.merged",
        "coord.task.finalized",    "cache.blob.commit",
    };
    const char* actions[] = {"crash_before", "crash_after", "torn"};

    CampaignSpec refSpec = parseCampaignSpec(kChaosSpec);
    refSpec.threads = 2;
    const CampaignResult reference = runCampaign(refSpec);
    const std::string referenceJson = normalizedJson(reference);

    std::mt19937_64 rng(0xc4a05);
    ScratchDir scratch("chaos-rand");
    for (size_t i = 0; i < 6; ++i) {
        std::string plan;
        const size_t nRules = 1 + rng() % 2;
        for (size_t r = 0; r < nRules; ++r) {
            if (!plan.empty())
                plan += ";";
            plan += points[rng() % std::size(points)];
            plan += ":";
            plan += actions[rng() % std::size(actions)];
            plan += "@" + std::to_string(1 + rng() % 4);
        }
        SCOPED_TRACE("random schedule " + std::to_string(i) + ": " +
                     plan);
        const std::string dir =
            scratch.path + "/r" + std::to_string(i);
        const int rc = runChaosChild(dir, plan);
        EXPECT_TRUE(rc == 0 || rc == kFaultCrashExitCode)
            << "child exit " << rc;
        const CampaignResult merged = takeoverAndFinish(dir);
        expectTasksIdentical(reference, merged);
        EXPECT_EQ(referenceJson, normalizedJson(merged));
    }
}

TEST(ChaosSchedules, DoubleCrashThenTakeoverStillConverges)
{
    // Two successive coordinators die at different points before a
    // third finishes the job — failover must compose.
    CampaignSpec refSpec = parseCampaignSpec(kChaosSpec);
    refSpec.threads = 2;
    const CampaignResult reference = runCampaign(refSpec);

    ScratchDir scratch("chaos-double");
    const std::string dir = scratch.path + "/spool";
    int rc = runChaosChild(dir, "coord.record.merged:crash_before@1");
    EXPECT_EQ(rc, kFaultCrashExitCode);
    rc = runChaosChild(dir, "coord.task.finalized:crash_after@1");
    EXPECT_EQ(rc, kFaultCrashExitCode);

    const CampaignResult merged = takeoverAndFinish(dir);
    expectTasksIdentical(reference, merged);
    EXPECT_EQ(normalizedJson(reference), normalizedJson(merged));
    EXPECT_EQ(merged.spool.coordinatorTakeovers, 1u);
    EXPECT_GE(merged.spool.journalRestores, 1u)
        << "the second coordinator finalized at least one task";
}

TEST(CoordinatorTakeover, MidMergeKillIsByteIdentical)
{
    // The acceptance scenario: coordinator killed mid-merge, a
    // takeover resumes from journal + records + republished shards,
    // and the merged JSON is byte-identical (modulo timing and
    // cache/spool counters) to an uninterrupted run.
    CampaignSpec refSpec = parseCampaignSpec(kChaosSpec);
    refSpec.threads = 2;
    const CampaignResult reference = runCampaign(refSpec);

    ScratchDir scratch("takeover");
    const std::string dir = scratch.path + "/spool";
    const int rc =
        runChaosChild(dir, "coord.record.merged:crash_before@4");
    EXPECT_EQ(rc, kFaultCrashExitCode);

    Spool spool(dir);
    EXPECT_FALSE(spool.done());
    EXPECT_TRUE(spool.hasCoordinatorLease())
        << "the dead coordinator's lease must still be there";

    const CampaignResult merged = takeoverAndFinish(dir);
    EXPECT_EQ(merged.spool.coordinatorTakeovers, 1u);
    EXPECT_TRUE(spool.done());
    expectTasksIdentical(reference, merged);
    EXPECT_EQ(normalizedJson(reference), normalizedJson(merged));
}

TEST(InProcessCrash, ResumesFromCheckpointBitIdentically)
{
    // An in-process run fires the coordinator's milestones too: killed
    // right after its first finalize, it leaves the checkpoint its
    // onTaskDone saved, and resuming from that checkpoint finishes
    // the campaign exactly as an uninterrupted run does.
    CampaignSpec spec = parseCampaignSpec(kChaosSpec);
    spec.threads = 2;
    const CampaignResult reference = runCampaign(spec);

    ScratchDir scratch("inprocess-crash");
    const std::string path = scratch.path + "/campaign.ckpt";
    const pid_t pid = ::fork();
    if (pid == 0) {
        installFaultPlan(
            FaultPlan::parse("coord.task.finalized:crash_after@1"));
        CampaignResult saved;
        int rc = 0;
        try {
            runCampaign(spec, nullptr, [&](const TaskResult& t) {
                saved.tasks.push_back(t);
                saveCheckpoint(saved, path);
            });
        } catch (const std::exception& ex) {
            std::fprintf(stderr, "crash child: %s\n", ex.what());
            rc = 3;
        }
        ::_exit(rc);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kFaultCrashExitCode)
        << "the run must die at its first finalize";

    CampaignCheckpoint checkpoint;
    ASSERT_TRUE(loadCheckpoint(path, checkpoint));
    const CampaignResult resumed = runCampaign(spec, &checkpoint);
    expectTasksIdentical(reference, resumed);
    size_t restored = 0;
    for (const TaskResult& t : resumed.tasks)
        restored += t.fromCheckpoint ? 1 : 0;
    EXPECT_GE(restored, 1u);
}

} // namespace
} // namespace cyclone
