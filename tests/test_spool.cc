/**
 * @file
 * Tests for distributed campaign execution: spool serde and claim
 * protocol, shareable artifact serialization, coordinator/worker
 * bit-identity against single-process runs, lease expiry and reclaim
 * after a killed worker, and fleet-wide exactly-once compile
 * accounting through the shared store.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/adaptive_sampler.h"
#include "campaign/artifact_cache.h"
#include "campaign/atomic_file.h"
#include "campaign/campaign.h"
#include "campaign/campaign_io.h"
#include "campaign/content_hash.h"
#include "campaign/coordinator.h"
#include "campaign/fault_plan.h"
#include "campaign/spool.h"
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
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        std::system(cmd.c_str());
    }
};

/**
 * A spec exercised both in-process and through a spool. Explicit
 * latency (arch = none) keeps it compile-free; two p points on two
 * codes give four tasks with distinct DEMs; staging_chunks = 2 with
 * chunks_per_wave = 4 exercises shard/staging alignment; the second
 * task's adaptive target stops early, exercising multi-wave merging.
 */
const char* kSpoolSpec = R"(name = spool-suite
seed = 13

[task]
id = s3
code = surface3
arch = none
p = 0.02, 0.05
chunk_shots = 50
chunks_per_wave = 4
max_shots = 600
staging_chunks = 2
bp = minsum

[task]
id = s3adapt
code = surface3
arch = none
p = 0.08
chunk_shots = 64
chunks_per_wave = 3
max_shots = 5000
target_rel_err = 0.3
bp = minsum
)";

/** Fork `count` worker processes against `spool`. Children never
 *  return: they run the worker loop and _exit. With crashAfterClaim
 *  each crashes (exit kFaultCrashExitCode) right after its first claim
 *  lands, leaving the claim dangling as a killed worker would. */
std::vector<pid_t>
forkWorkers(const std::string& spool, size_t count,
            double startDelaySeconds = 0.0, bool crashAfterClaim = false)
{
    std::vector<pid_t> pids;
    for (size_t w = 0; w < count; ++w) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            if (startDelaySeconds > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(startDelaySeconds));
            if (crashAfterClaim)
                installFaultPlan(FaultPlan::parse(
                    "spool.shard.claimed:crash_after@1"));
            WorkerOptions opts;
            opts.spool = spool;
            opts.threads = 2;
            opts.workerId = "w" + std::to_string(::getpid());
            opts.pollSeconds = 0.01;
            int rc = 0;
            try {
                runSpoolWorker(opts);
            } catch (...) {
                rc = 1;
            }
            ::_exit(rc);
        }
        pids.push_back(pid);
    }
    return pids;
}

void
reapWorkers(const std::vector<pid_t>& pids, int exitCode = 0)
{
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), exitCode);
    }
}

TEST(SpoolSerde, ShardDescriptorRoundTrip)
{
    ShardDescriptor d;
    d.task = 3;
    d.shard = 17;
    d.firstChunk = 42;
    d.numChunks = 6;
    d.contentHash = 0xdeadbeefcafef00dull;
    d.taskSeed = 0x0123456789abcdefull;
    const ShardDescriptor r =
        parseShardDescriptor(formatShardDescriptor(d));
    EXPECT_EQ(r.task, d.task);
    EXPECT_EQ(r.shard, d.shard);
    EXPECT_EQ(r.firstChunk, d.firstChunk);
    EXPECT_EQ(r.numChunks, d.numChunks);
    EXPECT_EQ(r.contentHash, d.contentHash);
    EXPECT_EQ(r.taskSeed, d.taskSeed);
    EXPECT_THROW(parseShardDescriptor("garbage"), std::runtime_error);
    EXPECT_THROW(parseShardDescriptor("cyclone-shard v1\nshard 1 2\n"),
                 std::runtime_error);
}

TEST(SpoolSerde, ShardRecordRoundTripAndBackCompat)
{
    ShardRecord r;
    r.task = 2;
    r.shard = 9;
    r.contentHash = 0xfeedface12345678ull;
    r.shots = 640;
    r.failures = 13;
    r.seconds = 0.6251397;
    r.decoder.decodes = 640;
    r.decoder.bpConverged = 600;
    r.decoder.osdInvocations = 40;
    r.decoder.osdFailures = 2;
    r.decoder.trivialShots = 100;
    r.decoder.memoHits = 50;
    r.decoder.bpIterations = 9000;
    r.decoder.waveGroups = 11;
    r.decoder.waveLaneSlots = 88;
    r.decoder.waveLanesFilled = 80;
    r.decoder.osdBatchGroups = 5;
    r.decoder.stagedChunks = 10;
    r.decoder.backend = "avx512";

    const ShardRecord p = parseShardRecord(formatShardRecord(r));
    EXPECT_EQ(p.task, r.task);
    EXPECT_EQ(p.shard, r.shard);
    EXPECT_EQ(p.contentHash, r.contentHash);
    EXPECT_EQ(p.shots, r.shots);
    EXPECT_EQ(p.failures, r.failures);
    EXPECT_EQ(p.seconds, r.seconds);
    EXPECT_EQ(deterministicMismatch(p.decoder, r.decoder), "");
    EXPECT_EQ(p.decoder.backend, "avx512");

    // Back-compat *within* the checksummed envelope: a record written
    // before some counters existed loads them as zero, and one written
    // by a newer build has its unknown counters skipped — adding a
    // counter needs no format bump.
    const std::string old = withCrcLine(
        "cyclone-shard-result v3\n"
        "shard task=1 shard=2 content_hash=00000000000000ff shots=100 "
        "failures=5 seconds=1.5 decoder.decodes=100 "
        "decoder.osd_failures=1 decoder.counter_from_a_newer_build=7\n");
    const ShardRecord q = parseShardRecord(old);
    EXPECT_EQ(q.shard, 2u);
    EXPECT_EQ(q.contentHash, 0xffu);
    EXPECT_EQ(q.shots, 100u);
    EXPECT_EQ(q.seconds, 1.5);
    EXPECT_EQ(q.decoder.decodes, 100u);
    EXPECT_EQ(q.decoder.osdFailures, 1u);
    EXPECT_EQ(q.decoder.trivialShots, 0u);
    EXPECT_EQ(q.decoder.stagedChunks, 0u);

    // A value that does not parse is malformed, never silently zero.
    const std::string garbled = withCrcLine(
        "cyclone-shard-result v3\n"
        "shard task=1 shard=2 shots=100 decoder.decodes=12abc\n");
    EXPECT_THROW(parseShardRecord(garbled), std::runtime_error);

    // So is a token without a key, a repeated key, and a document
    // with no shard record at all.
    const std::string keyless = withCrcLine(
        "cyclone-shard-result v3\nshard task=1 100\n");
    EXPECT_THROW(parseShardRecord(keyless), std::runtime_error);
    const std::string repeated = withCrcLine(
        "cyclone-shard-result v3\nshard task=1 shots=5 shots=6\n");
    EXPECT_THROW(parseShardRecord(repeated), std::runtime_error);
    const std::string empty = withCrcLine("cyclone-shard-result v3\n");
    EXPECT_THROW(parseShardRecord(empty), std::runtime_error);

    // An older positional record fails the magic check even when its
    // checksum holds.
    const std::string v2 = withCrcLine(
        "cyclone-shard-result v2\n"
        "shard 1 2 00000000000000ff 100 5 1.5\n"
        "decoder 100 90 10 1\n");
    EXPECT_THROW(parseShardRecord(v2), std::runtime_error);

    // An un-checksummed record (the pre-CRC v1 format, or a write
    // torn inside the payload) is corrupt, not merely unversioned:
    // torn-write detection hangs on the CRC line being mandatory.
    const std::string v1 =
        "cyclone-shard-result v1\n"
        "shard 1 2 00000000000000ff 100 5 1.5\n"
        "decoder 100 90 10 1\n";
    EXPECT_THROW(parseShardRecord(v1), CorruptRecordError);

    // Flipping one payload byte fails the checksum.
    std::string flipped = formatShardRecord(r);
    flipped[flipped.find("640")] = '9';
    EXPECT_THROW(parseShardRecord(flipped), CorruptRecordError);

    // Truncation anywhere inside the payload fails the checksum (or
    // removes it entirely); only trailing-newline loss can survive,
    // and that leaves a complete, valid record.
    const std::string whole = formatShardRecord(r);
    for (size_t cut = 1; cut + 1 < whole.size(); cut += 7)
        EXPECT_THROW(parseShardRecord(whole.substr(0, cut)),
                     std::runtime_error)
            << "cut at " << cut;
}

TEST(SpoolSerde, ManifestRoundTrip)
{
    SpoolManifest m;
    // Text values escape whatever would split a record token.
    m.name = "spool suite 100%=done\tcampaign";
    m.seed = 0xabcdef;
    m.specHash = 0x1122334455667788ull;
    m.leaseSeconds = 2.5;
    const SpoolManifest p = parseManifest(formatManifest(m));
    EXPECT_EQ(p.name, m.name);
    EXPECT_EQ(p.seed, m.seed);
    EXPECT_EQ(p.specHash, m.specHash);
    EXPECT_EQ(p.leaseSeconds, m.leaseSeconds);
}

TEST(SpoolSerde, WorkerStatsRoundTrip)
{
    WorkerReport r;
    r.state = "degraded";
    r.shardsRun = 7;
    r.shots = 4200;
    r.failures = 33;
    r.cache.compileHits = 1;
    r.cache.compileMisses = 2;
    r.cache.compileStoreHits = 2;
    r.cache.compileBytes = 12345;
    r.cache.demHits = 3;
    r.cache.demMisses = 4;
    r.cache.demStoreHits = 4;
    r.cache.demBytes = 6789;
    r.cache.quarantinedBlobs = 2;
    r.cache.compileSeconds = 0.125;
    r.cache.demBuildSeconds = 1.0 / 3.0;
    r.transientRetries = 5;
    r.promotions = 1;
    const WorkerReport p = parseWorkerStats(formatWorkerStats(r));
    EXPECT_EQ(p.state, r.state);
    EXPECT_EQ(p.shardsRun, r.shardsRun);
    EXPECT_EQ(p.shots, r.shots);
    EXPECT_EQ(p.failures, r.failures);
    EXPECT_EQ(deterministicMismatch(p.cache, r.cache), "");
    EXPECT_EQ(p.cache.compileSeconds, r.cache.compileSeconds);
    EXPECT_EQ(p.cache.demBuildSeconds, r.cache.demBuildSeconds);
    EXPECT_EQ(p.transientRetries, r.transientRetries);
    EXPECT_EQ(p.promotions, r.promotions);
}

TEST(SpoolSerde, ShardPlanningHelpers)
{
    StoppingRule rule;
    rule.chunkShots = 100;
    rule.chunksPerWave = 8;
    rule.maxShots = 1050;
    rule.stagingChunks = 3;
    // ceil(8/4)=2 -> rounded to 3
    EXPECT_EQ(effectiveShardChunks(rule), 3u);
    rule.stagingChunks = 1;
    EXPECT_EQ(effectiveShardChunks(rule), 2u);

    // The chunk plan AdaptiveSampler and workers share: full chunks
    // until the budget, then a short tail, then zero.
    EXPECT_EQ(planChunk(rule, 7, 0).shots, 100u);
    EXPECT_EQ(planChunk(rule, 7, 9).shots, 100u);
    EXPECT_EQ(planChunk(rule, 7, 10).shots, 50u);
    EXPECT_EQ(planChunk(rule, 7, 11).shots, 0u);
    EXPECT_EQ(planChunk(rule, 7, 9).index, 9u);
    EXPECT_EQ(planChunk(rule, 7, 9).seed, chunkSeed(7, 9));
}

TEST(SpoolProtocol, ClaimCompleteAndRecords)
{
    ScratchDir scratch("spool-proto");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "proto";
    m.seed = 1;
    m.leaseSeconds = 30.0;
    spool.initialize(m, "name = proto\n[task]\ncode = surface3\n");
    EXPECT_TRUE(spool.initialized());
    EXPECT_FALSE(spool.done());

    // Re-initializing with the same spec is idempotent; a different
    // spec is a hard error (two campaigns, one directory).
    spool.initialize(m, "name = proto\n[task]\ncode = surface3\n");
    EXPECT_THROW(spool.initialize(m, "name = other\n"),
                 std::runtime_error);

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.firstChunk = 0;
    d.numChunks = 4;
    d.contentHash = 0x42;
    d.taskSeed = 0x99;
    EXPECT_TRUE(spool.publishShard(d));
    EXPECT_FALSE(spool.publishShard(d)) << "already open";
    ASSERT_EQ(spool.openShards().size(), 1u);
    const std::string id = spool.openShards()[0];
    EXPECT_EQ(id, shardId(0, 0));

    ShardDescriptor claimed;
    ASSERT_TRUE(spool.claimShard(id, claimed));
    EXPECT_EQ(claimed.numChunks, 4u);
    EXPECT_EQ(claimed.contentHash, 0x42u);
    ShardDescriptor loser;
    EXPECT_FALSE(spool.claimShard(id, loser)) << "second claim";
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_GE(spool.claimAge(id), 0.0);
    spool.heartbeat(id);
    EXPECT_LT(spool.claimAge(id), 5.0);

    ShardRecord rec;
    rec.task = 0;
    rec.shard = 0;
    rec.contentHash = 0x42;
    rec.shots = 400;
    rec.failures = 7;
    EXPECT_FALSE(spool.hasRecord(id));
    spool.completeShard(id, rec);
    EXPECT_TRUE(spool.hasRecord(id));
    EXPECT_TRUE(spool.claimedShards().empty());
    EXPECT_FALSE(spool.publishShard(d)) << "already has a record";
    const ShardRecord loaded = spool.readRecord(id);
    EXPECT_EQ(loaded.shots, 400u);
    EXPECT_EQ(loaded.failures, 7u);

    // Reclaim path: publish, claim, reclaim -> open again.
    d.shard = 1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id2 = shardId(0, 1);
    ASSERT_TRUE(spool.claimShard(id2, claimed));
    EXPECT_TRUE(spool.reclaimShard(id2));
    EXPECT_FALSE(spool.reclaimShard(id2)) << "second reclaim";
    ASSERT_EQ(spool.openShards().size(), 1u);
    EXPECT_EQ(spool.openShards()[0], id2);
    EXPECT_LT(spool.claimAge(id2), 0.0) << "no longer claimed";

    spool.markDone();
    EXPECT_TRUE(spool.done());
}

TEST(SpoolProtocol, CoordinatorLeaseHasExactlyOneWinner)
{
    ScratchDir scratch("spool-lease-proto");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "lease";
    m.seed = 1;
    spool.initialize(m, "name = lease\n");

    EXPECT_FALSE(spool.hasCoordinatorLease());
    EXPECT_LT(spool.coordinatorLeaseAge(), 0.0);
    EXPECT_TRUE(spool.acquireCoordinatorLease("alice"));
    EXPECT_TRUE(spool.hasCoordinatorLease());
    EXPECT_FALSE(spool.acquireCoordinatorLease("bob"))
        << "O_EXCL create must have exactly one winner";
    EXPECT_GE(spool.coordinatorLeaseAge(), 0.0);

    // Releasing someone else's lease is a no-op.
    spool.releaseCoordinatorLease("bob");
    EXPECT_TRUE(spool.hasCoordinatorLease());

    // A steal replaces the (presumed dead) owner's lease.
    EXPECT_TRUE(spool.stealCoordinatorLease("bob"));
    EXPECT_TRUE(spool.hasCoordinatorLease());
    spool.releaseCoordinatorLease("bob");
    EXPECT_FALSE(spool.hasCoordinatorLease());
    EXPECT_TRUE(spool.acquireCoordinatorLease("carol"));
}

TEST(SpoolProtocol, QuarantinedAndRetiredShardsPublishAgain)
{
    ScratchDir scratch("spool-quarantine");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "quarantine";
    m.seed = 1;
    spool.initialize(m, "name = quarantine\n");

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.numChunks = 1;
    d.contentHash = 0x1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id = shardId(0, 0);

    ShardDescriptor got;
    ASSERT_TRUE(spool.claimShard(id, got));
    ShardRecord rec;
    rec.task = 0;
    rec.shard = 0;
    rec.contentHash = 0x1;
    rec.shots = 10;
    spool.completeShard(id, rec);

    // The record is the shard's completion: no descriptor is left in
    // open/ or claimed/. The same holds when the claim was reclaimed
    // to open/ before the record landed.
    ASSERT_TRUE(spool.hasRecord(id));
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_TRUE(spool.claimedShards().empty());
    ShardDescriptor slow = d;
    slow.shard = 1;
    const std::string slowId = shardId(0, 1);
    ASSERT_TRUE(spool.publishShard(slow));
    ASSERT_TRUE(spool.claimShard(slowId, got));
    ASSERT_TRUE(spool.reclaimShard(slowId));
    spool.completeShard(slowId, rec);
    EXPECT_TRUE(spool.hasRecord(slowId));
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_TRUE(spool.claimedShards().empty());

    // Quarantining the record makes the shard publishable again.
    EXPECT_FALSE(spool.publishShard(d)) << "has a record";
    EXPECT_TRUE(spool.quarantineRecord(id));
    EXPECT_FALSE(spool.hasRecord(id));
    EXPECT_FALSE(spool.quarantineRecord(id)) << "already moved";
    ASSERT_TRUE(spool.publishShard(d));
    EXPECT_EQ(spool.openShards(), std::vector<std::string>{id});

    // Retiring a claim (its task finished) leaves nothing behind, and
    // a retired shard with no record publishes again.
    ASSERT_TRUE(spool.claimShard(id, got));
    EXPECT_TRUE(spool.retireClaim(id));
    EXPECT_FALSE(spool.retireClaim(id)) << "already retired";
    EXPECT_TRUE(spool.openShards().empty());
    EXPECT_TRUE(spool.claimedShards().empty());
    EXPECT_TRUE(spool.publishShard(d));

    // Quarantine the shard outright (claimed/ first, then open/).
    EXPECT_TRUE(spool.quarantineShard(id));
    EXPECT_FALSE(spool.quarantineShard(id)) << "nothing left";
    const std::vector<std::string> q = spool.quarantined();
    ASSERT_EQ(q.size(), 2u) << "descriptor + record";
}

TEST(SpoolProtocol, ReclaimCountPersistsAcrossHandles)
{
    ScratchDir scratch("spool-reclaims");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "reclaims";
    m.seed = 1;
    spool.initialize(m, "name = reclaims\n");

    const std::string id = shardId(0, 7);
    EXPECT_EQ(spool.reclaimCount(id), 0u);
    EXPECT_EQ(spool.bumpReclaimCount(id), 1u);
    EXPECT_EQ(spool.bumpReclaimCount(id), 2u);
    EXPECT_EQ(spool.reclaimCount(id), 2u);

    // A takeover coordinator (fresh handle) sees the same counter —
    // poison shards survive coordinator failover.
    Spool other(scratch.path);
    EXPECT_EQ(other.reclaimCount(id), 2u);
    EXPECT_EQ(other.bumpReclaimCount(id), 3u);
}

TEST(SpoolProtocol, ClaimAgeSurvivesWallClockStep)
{
    ScratchDir scratch("spool-monotonic");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "monotonic";
    m.seed = 1;
    spool.initialize(m, "name = monotonic\n");

    ShardDescriptor d;
    d.task = 0;
    d.shard = 0;
    d.numChunks = 1;
    d.contentHash = 0x1;
    ASSERT_TRUE(spool.publishShard(d));
    const std::string id = shardId(0, 0);
    ShardDescriptor got;
    ASSERT_TRUE(spool.claimShard(id, got));

    EXPECT_GE(spool.claimAge(id), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_GE(spool.claimAge(id), 0.05);

    // Simulate a wall-clock step: rewrite the claim's mtime one hour
    // into the past, as an NTP correction (or a worker on a skewed
    // clock heartbeating) would. A wall-clock implementation would
    // read ~3600s and instantly expire the live lease; the monotonic
    // observation scheme just sees "heartbeat changed" and restarts
    // the age from zero.
    const std::string claimPath = scratch.path + "/claimed/" + id;
    struct timespec past[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &past[0]), 0);
    past[0].tv_sec -= 3600;
    past[1] = past[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, claimPath.c_str(), past, 0), 0);
    EXPECT_LT(spool.claimAge(id), 1.0)
        << "a clock step must not expire a live lease";
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const double aged = spool.claimAge(id);
    EXPECT_GE(aged, 0.05);
    EXPECT_LT(aged, 1.0);

    // Same for a step into the future (age must never go negative).
    struct timespec future[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &future[0]), 0);
    future[0].tv_sec += 3600;
    future[1] = future[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, claimPath.c_str(), future, 0), 0);
    EXPECT_GE(spool.claimAge(id), 0.0);
    EXPECT_LT(spool.claimAge(id), 1.0);

    // A vanished claim still reads negative.
    ASSERT_TRUE(spool.reclaimShard(id));
    EXPECT_LT(spool.claimAge(id), 0.0);
}

TEST(SpoolProtocol, WorkerHealthAgeSurvivesWallClockStep)
{
    // End-of-run health classification ("did this worker's heartbeat
    // file stop updating?") must use the same monotonic observation
    // history as shard claims. With wall-clock mtime arithmetic an
    // NTP step during the campaign would misreport every live worker
    // as lost.
    ScratchDir scratch("spool-health-monotonic");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "health";
    m.seed = 1;
    spool.initialize(m, "name = health\n");

    EXPECT_LT(spool.workerHealthAge("w1"), 0.0)
        << "missing health file must read negative";

    spool.writeFile("workers/w1", "health-v1\nstate running\n");
    EXPECT_GE(spool.workerHealthAge("w1"), 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_GE(spool.workerHealthAge("w1"), 0.05);

    // Wall-clock step one hour into the past: a wall-clock
    // implementation reads ~3600s and classifies the worker as lost;
    // the monotonic scheme sees "file changed" and restarts from 0.
    const std::string healthPath = scratch.path + "/workers/w1";
    struct timespec past[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &past[0]), 0);
    past[0].tv_sec -= 3600;
    past[1] = past[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, healthPath.c_str(), past, 0), 0);
    EXPECT_LT(spool.workerHealthAge("w1"), 1.0)
        << "a clock step must not mark a live worker lost";
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const double aged = spool.workerHealthAge("w1");
    EXPECT_GE(aged, 0.05);
    EXPECT_LT(aged, 1.0);

    // A step into the future must not produce negative ages either.
    struct timespec future[2];
    ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &future[0]), 0);
    future[0].tv_sec += 3600;
    future[1] = future[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, healthPath.c_str(), future, 0), 0);
    EXPECT_GE(spool.workerHealthAge("w1"), 0.0);
    EXPECT_LT(spool.workerHealthAge("w1"), 1.0);

    // A fresh heartbeat (mtime change) restarts the age again.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    spool.writeFile("workers/w1", "health-v1\nstate running\n");
    EXPECT_LT(spool.workerHealthAge("w1"), 0.02);
}

TEST(SpoolProtocol, JournalRoundTripThroughSpool)
{
    ScratchDir scratch("spool-journal");
    Spool spool(scratch.path);
    SpoolManifest m;
    m.name = "journal";
    m.seed = 1;
    spool.initialize(m, "name = journal\n");

    std::string out;
    EXPECT_FALSE(spool.readJournal(out));

    // The journal is a checkpoint document of the finalized tasks.
    TaskResult t;
    t.contentHash = 0xabcdef0123456789ull;
    t.rounds = 3;
    t.setCounts(17, 1200);
    t.chunks = 24;
    t.stoppedEarly = true;
    t.sampleSeconds = 0.125;
    t.decoder.decodes = 1200;
    t.decoder.bpIterations = 31337;
    t.decoder.backend = "avx512";
    spool.writeJournal(formatCheckpoint({t}));

    ASSERT_TRUE(spool.readJournal(out));
    const CampaignCheckpoint back = parseCheckpoint(out);
    ASSERT_EQ(back.tasks.size(), 1u);
    const TaskResult& r = back.tasks.at(t.contentHash);
    EXPECT_EQ(r.logicalErrorRate.trials, 1200u);
    EXPECT_EQ(r.logicalErrorRate.successes, 17u);
    EXPECT_EQ(r.wilson, t.wilson);
    EXPECT_EQ(r.perRoundErrorRate, t.perRoundErrorRate);
    EXPECT_EQ(r.chunks, t.chunks);
    EXPECT_EQ(r.stoppedEarly, t.stoppedEarly);
    EXPECT_EQ(r.sampleSeconds, t.sampleSeconds);
    EXPECT_EQ(r.decoder.decodes, t.decoder.decodes);
    EXPECT_EQ(r.decoder.bpIterations, t.decoder.bpIterations);
    EXPECT_EQ(r.decoder.backend, "avx512");

    // A corrupted journal fails its checksum.
    std::string torn = formatCheckpoint({t});
    torn[torn.size() / 2] ^= 1;
    EXPECT_THROW(parseCheckpoint(torn), CorruptRecordError);
    EXPECT_THROW(parseCheckpoint(torn.substr(0, torn.size() - 9)),
                 std::runtime_error);
    // So does a journal in the older, journal-only format: a takeover
    // quarantines it and re-merges from records.
    EXPECT_THROW(parseCheckpoint(withCrcLine(
                     "cyclone-coord-journal v2\n"
                     "task content_hash=abcdef0123456789 task=2 "
                     "shots=1200 failures=17\n")),
                 std::runtime_error);
}

TEST(ArtifactSerde, DemRoundTripIsBitExact)
{
    DetectorErrorModel dem;
    dem.numDetectors = 5;
    dem.numObservables = 2;
    dem.mechanisms.push_back({0.001, {0, 3}, 0b01});
    dem.mechanisms.push_back({0.25, {1}, 0});
    dem.mechanisms.push_back({1e-9, {0, 1, 2, 3, 4}, 0b11});
    const DetectorErrorModel r = deserializeDem(serializeDem(dem));
    EXPECT_EQ(r.numDetectors, dem.numDetectors);
    EXPECT_EQ(r.numObservables, dem.numObservables);
    ASSERT_EQ(r.mechanisms.size(), dem.mechanisms.size());
    for (size_t i = 0; i < dem.mechanisms.size(); ++i) {
        EXPECT_EQ(r.mechanisms[i].probability,
                  dem.mechanisms[i].probability);
        EXPECT_EQ(r.mechanisms[i].detectors,
                  dem.mechanisms[i].detectors);
        EXPECT_EQ(r.mechanisms[i].observables,
                  dem.mechanisms[i].observables);
    }
    EXPECT_THROW(deserializeDem("not a blob"), std::runtime_error);
    EXPECT_THROW(deserializeDem(serializeDem(dem).substr(0, 20)),
                 std::runtime_error);
}

TEST(ArtifactSerde, CompileResultRoundTripPreservesScheduleHash)
{
    CompileResult c;
    c.compilerName = "test-compiler";
    c.topologyName = "test-topology";
    c.serialized.gateUs = 12.5;
    c.serialized.shuttleUs = 3.25;
    c.serialized.junctionUs = 0.125;
    c.serialized.swapUs = 7.75;
    c.serialized.measureUs = 80.0;
    c.serialized.prepUs = 1.0;
    c.numTraps = 9;
    c.numJunctions = 4;
    c.numAncilla = 12;
    c.trapRoadblocks = 3;
    c.junctionRoadblocks = 1;
    c.rebalances = 2;
    c.gateOps = 30;
    c.shuttleOps = 20;
    c.swapOps = 5;
    c.schedule.numResources = 13;
    c.schedule.numIons = 25;
    c.schedule.ops.push_back({OpCategory::Gate, 2, 1, 7, 0.0,
                              0.0314159265358979312, 0.0, true});
    c.schedule.ops.push_back({OpCategory::Shuttle, kNoResource, 3,
                              kNoIon, 1.0 / 3.0, 86.0, 0.5, false});
    c.schedule.ops.push_back({OpCategory::Measure, 12, 24, kNoIon,
                              99.25, 120.0, 1e-17, true});
    c.deriveTimingFromSchedule();

    const CompileResult r =
        deserializeCompileResult(serializeCompileResult(c));
    EXPECT_EQ(r.compilerName, c.compilerName);
    EXPECT_EQ(r.topologyName, c.topologyName);
    EXPECT_EQ(r.execTimeUs, c.execTimeUs);
    EXPECT_EQ(r.serialized.gateUs, c.serialized.gateUs);
    EXPECT_EQ(r.serialized.prepUs, c.serialized.prepUs);
    EXPECT_EQ(r.numTraps, c.numTraps);
    EXPECT_EQ(r.numAncilla, c.numAncilla);
    EXPECT_EQ(r.trapRoadblocks, c.trapRoadblocks);
    EXPECT_EQ(r.rebalances, c.rebalances);
    EXPECT_EQ(r.gateOps, c.gateOps);
    EXPECT_EQ(r.swapOps, c.swapOps);
    ASSERT_EQ(r.schedule.ops.size(), c.schedule.ops.size());
    EXPECT_EQ(r.schedule.ops[1].resource, kNoResource);
    EXPECT_EQ(r.schedule.ops[1].counted, false);
    EXPECT_EQ(r.schedule.ops[2].waitUs, 1e-17);
    // The IR's content hash keys per-qubit idle DEMs: it must
    // round-trip bit-exactly or store-loaded compiles would rebuild
    // (or worse, mis-key) schedule-derived artifacts.
    EXPECT_EQ(hashTimedSchedule(r.schedule),
              hashTimedSchedule(c.schedule));
    EXPECT_THROW(deserializeCompileResult("bogus"),
                 std::runtime_error);
}

TEST(ArtifactStore, SecondCacheLoadsInsteadOfBuilding)
{
    ScratchDir scratch("artifact-store");
    ::mkdir(scratch.path.c_str(), 0777);

    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.mechanisms.push_back({0.01, {0, 1}, 1});

    int builds = 0;
    auto build = [&] {
        ++builds;
        return dem;
    };

    ArtifactCache first;
    first.attachStore(scratch.path);
    EXPECT_EQ(first.storeDir(), scratch.path);
    const auto a = first.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.stats().demMisses, 1u);
    EXPECT_EQ(first.stats().demStoreHits, 0u);
    EXPECT_GT(first.stats().demBytes, 0u);

    // A different cache (as another process would have) must satisfy
    // the miss from the store without running the builder.
    ArtifactCache second;
    second.attachStore(scratch.path);
    const auto b = second.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 1) << "store hit must not rebuild";
    EXPECT_EQ(second.stats().demMisses, 1u);
    EXPECT_EQ(second.stats().demStoreHits, 1u);
    EXPECT_EQ(second.stats().demBytes, first.stats().demBytes);
    EXPECT_EQ(b->mechanisms[0].probability,
              a->mechanisms[0].probability);

    // A corrupt store blob falls through to a rebuild.
    const std::string blobPath = scratch.path + "/dem-" +
        []() {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%016llx",
                          0x7777ull);
            return std::string(buf);
        }() +
        ".bin";
    writeFileAtomic(blobPath, "corrupted");
    ArtifactCache third;
    third.attachStore(scratch.path);
    const auto c = third.getOrBuildDem(0x7777, build);
    EXPECT_EQ(builds, 2) << "corrupt blob must rebuild";
    EXPECT_EQ(third.stats().demStoreHits, 0u);
    EXPECT_EQ(c->numDetectors, 2u);
}

CampaignResult
runDistributed(const std::string& spoolDir, size_t workers)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = spoolDir;
    spec.leaseSeconds = 30.0;
    const std::vector<pid_t> pids = forkWorkers(spoolDir, workers);
    CampaignResult result;
    try {
        result = runDistributedCampaign(spec, kSpoolSpec);
    } catch (...) {
        for (const pid_t pid : pids)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    for (const pid_t pid : pids) {
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    return result;
}

TEST(DistributedCampaign, TwoWorkersBitIdenticalToSingleProcess)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 2;
    const CampaignResult reference = runCampaign(spec);
    for (const TaskResult& t : reference.tasks)
        ASSERT_TRUE(t.error.empty()) << t.error;

    ScratchDir scratch("spool-2w");
    const CampaignResult dist = runDistributed(scratch.path, 2);
    expectTasksIdentical(reference, dist);
    EXPECT_GT(dist.spool.shardsPublished, 0u);
    EXPECT_EQ(dist.spool.shardsMerged, dist.spool.shardsPublished);
    EXPECT_EQ(dist.spool.recordsReused, 0u);
}

TEST(DistributedCampaign, FourWorkersBitIdenticalToSingleProcess)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 4;
    const CampaignResult reference = runCampaign(spec);

    ScratchDir scratch("spool-4w");
    const CampaignResult dist = runDistributed(scratch.path, 4);
    expectTasksIdentical(reference, dist);
}

TEST(DistributedCampaign, LeaseExpiryReclaimsKilledWorkersShard)
{
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.threads = 2;
    const CampaignResult reference = runCampaign(spec);

    ScratchDir scratch("spool-lease");
    CampaignSpec dspec = parseCampaignSpec(kSpoolSpec);
    dspec.spool = scratch.path;
    dspec.leaseSeconds = 0.5;

    // Worker A claims the first shard it sees and crashes without
    // completing or heartbeating it. Worker B starts 2s later (after
    // A's lease lapsed) and drains the whole spool.
    const std::vector<pid_t> dying =
        forkWorkers(scratch.path, 1, 0.0, /*crashAfterClaim=*/true);
    const std::vector<pid_t> healthy =
        forkWorkers(scratch.path, 1, 2.0);

    CampaignResult dist;
    try {
        dist = runDistributedCampaign(dspec, kSpoolSpec);
    } catch (...) {
        for (const pid_t pid : dying)
            ::waitpid(pid, nullptr, 0);
        for (const pid_t pid : healthy)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(dying, kFaultCrashExitCode);
    reapWorkers(healthy);

    EXPECT_GE(dist.spool.shardsReclaimed, 1u)
        << "the dead worker's claim must have been reclaimed";
    expectTasksIdentical(reference, dist);

    // Health roll-up: the killed worker's file went stale mid-state,
    // the survivor checked out cleanly.
    EXPECT_GE(dist.spool.workersLost, 1u);
    EXPECT_GE(dist.spool.workersHealthy, 1u);
    EXPECT_EQ(dist.spool.shardsPoisoned, 0u);
}

TEST(DistributedCampaign, SharedCacheCompilesEachPointExactlyOnce)
{
    // A compiled campaign (arch = cyclone): one distinct compile and
    // one distinct DEM per p, shared fleet-wide through the store.
    const char* spec_text = R"(name = spool-compile
seed = 21

[task]
code = surface3
arch = cyclone
p = 0.02, 0.04
chunk_shots = 50
chunks_per_wave = 2
max_shots = 200
bp = minsum
)";
    ScratchDir scratch("spool-once");
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.spool = scratch.path;

    const std::vector<pid_t> pids = forkWorkers(scratch.path, 2);
    CampaignResult dist;
    try {
        dist = runDistributedCampaign(spec, spec_text);
    } catch (...) {
        for (const pid_t pid : pids)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(pids);
    for (const TaskResult& t : dist.tasks)
        ASSERT_TRUE(t.error.empty()) << t.error;

    // Sum builder runs (misses not satisfied by the store) over the
    // coordinator's cache and every worker's record: the whole fleet
    // must have compiled exactly one architecture and built exactly
    // two DEMs.
    Spool spool(scratch.path);
    std::vector<CacheStats> sources = {dist.cache};
    for (const std::string& name : spool.list("workers"))
        sources.push_back(
            parseWorkerStats(spool.readFile("workers/" + name)).cache);
    size_t compileBuilds = 0;
    size_t demBuilds = 0;
    for (const CacheStats& c : sources) {
        compileBuilds += c.compileMisses - c.compileStoreHits;
        demBuilds += c.demMisses - c.demStoreHits;
    }
    EXPECT_EQ(sources.size(), 3u) << "coordinator + two workers";
    EXPECT_EQ(compileBuilds, 1u)
        << "one distinct architecture compile fleet-wide";
    EXPECT_EQ(demBuilds, 2u) << "one DEM per p fleet-wide";
    EXPECT_EQ(dist.cache.compileMisses, 1u);
    EXPECT_EQ(dist.cache.compileStoreHits, 0u);
    EXPECT_GT(dist.cache.compileBytes, 0u);
    EXPECT_GT(dist.cache.demBytes, 0u);
}

TEST(DistributedCampaign, SpoolResumeReusesRecords)
{
    // Run a campaign to completion, wipe the DONE marker AND the
    // merge journal, and rerun the coordinator with no workers:
    // every shard it republishes is already satisfied by a record,
    // so it must finish alone and report the reuse.
    ScratchDir scratch("spool-resume");
    const CampaignResult first = runDistributed(scratch.path, 2);

    std::string cmd = "rm -f '" + scratch.path + "/DONE' '" +
        scratch.path + "/journal.txt'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    const CampaignResult second =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(first, second);
    EXPECT_EQ(second.spool.shardsPublished, 0u);
    EXPECT_EQ(second.spool.recordsReused, second.spool.shardsMerged);
    EXPECT_EQ(second.spool.journalRestores, 0u);

    // With the journal intact, a rerun restores every finalized task
    // directly from it without touching a single record.
    cmd = "rm -f '" + scratch.path + "/DONE'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const CampaignResult third =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(first, third);
    EXPECT_EQ(third.spool.journalRestores, first.tasks.size());
    EXPECT_EQ(third.spool.shardsMerged, 0u);
    EXPECT_EQ(third.spool.shardsPublished, 0u);
}

TEST(DistributedCampaign, StreamingTasksAreRejectedUpFront)
{
    // The streaming decode service is in-process only for now: the
    // coordinator must refuse a streaming spec with a clear error
    // before creating any spool state, not silently drop the
    // telemetry.
    ScratchDir scratch("spool-streaming-reject");
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    spec.tasks[0].stream.enabled = true;
    spec.tasks[0].id = "served";
    try {
        runDistributedCampaign(spec, kSpoolSpec);
        FAIL() << "expected streaming rejection";
    } catch (const std::invalid_argument& ex) {
        const std::string what = ex.what();
        EXPECT_NE(what.find("streaming"), std::string::npos) << what;
        EXPECT_NE(what.find("in-process"), std::string::npos) << what;
        EXPECT_NE(what.find("served"), std::string::npos) << what;
    }
}

TEST(DistributedCampaign, PoisonShardQuarantinedAndSurfaced)
{
    // One task, zero reclaim tolerance, one worker that dies holding
    // its claim: the first lease expiry must quarantine the shard as
    // poison and finalize the task with an error instead of
    // republishing it forever.
    const char* spec_text = R"(name = spool-poison
seed = 5

[task]
id = poison
code = surface3
arch = none
p = 0.05
chunk_shots = 50
chunks_per_wave = 4
max_shots = 400
bp = minsum
)";
    ScratchDir scratch("spool-poison");
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.spool = scratch.path;
    spec.leaseSeconds = 0.3;
    spec.maxClaimReclaims = 0;

    const std::vector<pid_t> dying =
        forkWorkers(scratch.path, 1, 0.0, /*crashAfterClaim=*/true);
    CampaignResult dist;
    try {
        dist = runDistributedCampaign(spec, spec_text);
    } catch (...) {
        for (const pid_t pid : dying)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(dying, kFaultCrashExitCode);

    EXPECT_EQ(dist.spool.shardsPoisoned, 1u);
    ASSERT_EQ(dist.tasks.size(), 1u);
    EXPECT_NE(dist.tasks[0].error.find("poison shard"),
              std::string::npos)
        << dist.tasks[0].error;

    Spool spool(scratch.path);
    EXPECT_TRUE(spool.done());
    EXPECT_FALSE(spool.quarantined().empty());
}

TEST(DistributedCampaign, WorkerHealthFilesClassifyTheFleet)
{
    // Worker records are CRC'd key=value records. At the end of a run
    // a done record counts as healthy, a degraded one as degraded, and
    // a healthy-looking one that stopped updating, or one that fails
    // its checksum, as lost.
    ScratchDir scratch("spool-health");
    ASSERT_EQ(::mkdir(scratch.path.c_str(), 0777), 0);
    ASSERT_EQ(::mkdir((scratch.path + "/workers").c_str(), 0777), 0);
    auto health = [](const char* state) {
        WorkerReport r;
        r.state = state;
        r.shardsRun = 1;
        return formatWorkerStats(r);
    };
    const std::string workers = scratch.path + "/workers/";
    writeFileAtomic(workers + "finished", health("done"));
    writeFileAtomic(workers + "flaky", health("degraded"));
    writeFileAtomic(workers + "vanished", health("healthy"));
    std::string torn = health("done");
    torn[torn.size() / 2] ^= 1;
    writeFileAtomic(workers + "torn", torn);

    // The one live worker starts three lease periods late, so the
    // coordinator watches the vanished worker's file go stale first.
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    spec.leaseSeconds = 0.5;
    const std::vector<pid_t> pids = forkWorkers(scratch.path, 1, 1.5);
    CampaignResult dist;
    try {
        dist = runDistributedCampaign(spec, kSpoolSpec);
    } catch (...) {
        for (const pid_t pid : pids)
            ::waitpid(pid, nullptr, 0);
        throw;
    }
    reapWorkers(pids);

    EXPECT_EQ(dist.spool.workersHealthy, 2u) << "finished + live worker";
    EXPECT_EQ(dist.spool.workersDegraded, 1u);
    EXPECT_EQ(dist.spool.workersLost, 2u) << "vanished + torn";
}

TEST(DistributedCampaign, IdleWorkerPromotesOverDeadCoordinator)
{
    // The coordinator crashes at its first record merge (injected
    // fault, installed only in the forked coordinator child). The
    // lone promote-enabled worker drains the published wave, finds
    // nothing left to claim, watches the coordinator lease go stale,
    // promotes itself, and finishes the campaign — bit-identically.
    // The spec text sets no lease, so the promoted coordinator must
    // wait out the manifest's 0.4 s lease, not the text's default
    // 30 s: the worker is bounded at 20 s from its fork.
    CampaignSpec reference_spec = parseCampaignSpec(kSpoolSpec);
    reference_spec.threads = 2;
    const CampaignResult reference = runCampaign(reference_spec);

    ScratchDir scratch("spool-promote");
    const pid_t coord = ::fork();
    if (coord == 0) {
        installFaultPlan(
            FaultPlan::parse("coord.record.merged:crash_before@1"));
        CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
        spec.spool = scratch.path;
        spec.leaseSeconds = 0.4;
        int rc = 0;
        try {
            runDistributedCampaign(spec, kSpoolSpec);
        } catch (...) {
            rc = 3;
        }
        ::_exit(rc);
    }
    ASSERT_GT(coord, 0);

    const auto workerForked = std::chrono::steady_clock::now();
    const pid_t worker = ::fork();
    if (worker == 0) {
        WorkerOptions opts;
        opts.spool = scratch.path;
        opts.threads = 2;
        opts.workerId = "promoter";
        opts.pollSeconds = 0.01;
        opts.promote = true;
        int rc = 0;
        try {
            runSpoolWorker(opts);
        } catch (...) {
            rc = 1;
        }
        ::_exit(rc);
    }
    ASSERT_GT(worker, 0);

    int status = 0;
    ASSERT_EQ(::waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kFaultCrashExitCode)
        << "the coordinator must die at the injected fault";
    ASSERT_EQ(::waitpid(worker, &status, 0), worker);
    const double workerSeconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     workerForked)
                                     .count();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_LT(workerSeconds, 20.0)
        << "the promoted coordinator waited out a lease other than "
           "the manifest's";

    Spool spool(scratch.path);
    EXPECT_TRUE(spool.done())
        << "the promoted worker must have finished the campaign";
    const WorkerReport stats =
        parseWorkerStats(spool.readFile("workers/promoter"));
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.state, "done");
    EXPECT_TRUE(spool.exists("result.json"));

    // A post-hoc takeover of the finished spool restores everything
    // from the promoted worker's journal, bit-identically.
    CampaignSpec spec = parseCampaignSpec(kSpoolSpec);
    spec.spool = scratch.path;
    std::string cmd = "rm -f '" + scratch.path + "/DONE'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const CampaignResult merged =
        runDistributedCampaign(spec, kSpoolSpec);
    expectTasksIdentical(reference, merged);
    EXPECT_EQ(merged.spool.journalRestores, reference.tasks.size());
}

TEST(DistributedCampaign, TakeoverRepublishesARetiredShard)
{
    // A self-executing coordinator retires the claim of an open shard
    // whose task already finished. If that task failed, it is not
    // journaled, so a takeover runs it again and must be able to
    // publish the retired shard anew: a shard with no record is never
    // complete. One wave of four one-chunk shards; the second was
    // retired before the takeover starts.
    const char* spec_text = R"(name = spool-retired
seed = 17

[task]
id = retired
code = surface3
arch = none
p = 0.05
chunk_shots = 50
chunks_per_wave = 4
max_shots = 200
bp = minsum
)";
    CampaignSpec reference_spec = parseCampaignSpec(spec_text);
    reference_spec.threads = 2;
    const CampaignResult reference = runCampaign(reference_spec);
    ASSERT_TRUE(reference.tasks[0].error.empty()) << reference.tasks[0].error;

    ScratchDir scratch("spool-retired");
    CampaignSpec spec = parseCampaignSpec(spec_text);
    spec.spool = scratch.path;
    SpoolManifest m;
    m.name = spec.name;
    m.seed = spec.seed;
    m.leaseSeconds = spec.leaseSeconds;
    Spool spool(scratch.path);
    spool.initialize(m, spec_text);
    ShardDescriptor d;
    d.task = 0;
    d.shard = 1;
    d.numChunks = 1;
    const std::string id = shardId(0, 1);
    ASSERT_TRUE(spool.publishShard(d));
    ShardDescriptor got;
    ASSERT_TRUE(spool.claimShard(id, got));
    ASSERT_TRUE(spool.retireClaim(id));

    // In a child under an alarm, so a takeover that waits forever on
    // the retired shard fails this test instead of hanging the suite.
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::alarm(60);
        CoordinatorOptions copts;
        copts.selfExecute = true;
        copts.threads = 2;
        copts.owner = "takeover";
        int rc = 0;
        try {
            runDistributedCampaign(spec, spec_text, nullptr, nullptr,
                                   copts);
        } catch (...) {
            rc = 3;
        }
        ::_exit(rc);
    }
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "the takeover hung on the retired "
                                      "shard until the alarm fired";
    ASSERT_EQ(WEXITSTATUS(status), 0);
    for (size_t shard = 0; shard < 4; ++shard)
        EXPECT_TRUE(spool.hasRecord(shardId(0, shard))) << shard;

    // The child's journal holds the task it finalized: restore it and
    // compare with the in-process run.
    std::string cmd = "rm -f '" + scratch.path + "/DONE'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const CampaignResult merged = runDistributedCampaign(spec, spec_text);
    expectTasksIdentical(reference, merged);
    EXPECT_EQ(merged.spool.journalRestores, 1u);
}

} // namespace
} // namespace cyclone
