/**
 * @file
 * Filesystem spool: the shared-directory work queue of distributed
 * campaigns.
 *
 * A spool is one directory any number of processes can reach — local
 * disk for N workers on one box, NFS for a fleet — holding the whole
 * coordinator/worker protocol as files. No sockets, no daemon: every
 * operation is a POSIX file primitive, and the only one that must be
 * atomic is rename(2), which is atomic on every local filesystem and
 * on NFS within one directory.
 *
 * Layout:
 *
 *     spool/
 *       manifest.txt       campaign name, seed, spec hash, lease
 *       spec.ini           verbatim campaign spec text
 *       cache/             shared artifact store (see ArtifactCache)
 *       open/<shard>       unclaimed shard descriptors
 *       claimed/<shard>    claimed descriptors; mtime = lease heartbeat
 *       results/<shard>.rec  shard result records (tmp+rename publish);
 *                          a record is its shard's completion
 *       coord.lease        coordinator liveness lease (mtime heartbeat)
 *       journal.txt        coordinator journal: the checkpoint document
 *                          of the finalized tasks
 *       reclaims/<shard>   per-shard reclaim counters (poison detection)
 *       quarantine/        corrupt records/descriptors, poison shards
 *       workers/<id>       one record per worker: health state
 *                          (healthy/degraded/done) and its counters
 *       result.json        merged campaign result (written at the end)
 *       DONE               coordinator's end-of-campaign marker
 *
 * Claim protocol: a worker claims `open/X` by renaming it to
 * `claimed/X`. Exactly one renamer wins; losers get ENOENT and move
 * on. The worker touches `claimed/X` as a heartbeat while executing;
 * the coordinator renames any claim whose heartbeat went stale back
 * to `open/` (reclaim), so shards of a killed worker are re-executed
 * rather than lost. Records are deterministic functions of
 * (spec, shard), so the rare double execution after a reclaim race
 * produces identical bytes and is harmless — the coordinator absorbs
 * each shard id exactly once.
 *
 * Coordinator failover: the coordinator holds `coord.lease`
 * (created O_CREAT|O_EXCL, heartbeated by mtime) and rewrites
 * `journal.txt` after every task it finalizes, in the campaign
 * checkpoint format (campaign_io.h). If it dies, any process may
 * steal the stale lease (a rename, so exactly one winner) and resume:
 * records are idempotent, publishing skips existing shards, and
 * journaled tasks restore without re-merging — the takeover run
 * produces bit-identical results.
 *
 * Self-healing: the manifest, shard descriptors and records, the
 * journal and the worker records are key=value record documents
 * (kv_record.h) with a trailing CRC-32 line. A file that fails its
 * checksum (torn write, bit rot) is moved to `quarantine/` and its
 * shard re-published instead of poisoning the merge (a worker record
 * that fails it counts its worker as lost). A shard whose claim
 * is reclaimed `max_claim_reclaims` times (it keeps killing workers)
 * is itself quarantined and its task finalized with an error rather
 * than livelocking the fleet.
 *
 * Lease ages are *monotonic-safe*: ages are measured as elapsed
 * CLOCK_MONOTONIC time since this process last observed the file's
 * mtime change, never as a realtime-minus-mtime difference, so an NTP
 * wall-clock step can neither expire every live lease at once nor
 * keep a dead one alive.
 *
 * Shard ids are zero-padded ("t0003-s00017") so lexicographic
 * directory order equals (task, shard-index) order and the
 * coordinator's merge order is deterministic by construction.
 */

#ifndef CYCLONE_CAMPAIGN_SPOOL_H
#define CYCLONE_CAMPAIGN_SPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/retry_policy.h"
#include "common/kv_record.h"
#include "decoder/bposd_decoder.h"

namespace cyclone {

/** One claimable unit of work: a contiguous chunk range of a task. */
struct ShardDescriptor
{
    /** Index of the task in the (re-parsed) campaign spec. */
    size_t task = 0;
    /** Ordinal of this shard within the task (merge order). */
    size_t shard = 0;
    /** First chunk index (chunkSeed index) of the range. */
    size_t firstChunk = 0;
    /** Number of chunks in the range. */
    size_t numChunks = 0;
    /** Task content hash: workers verify their re-resolved spec. */
    uint64_t contentHash = 0;
    /** Effective task seed (chunkSeed base). */
    uint64_t taskSeed = 0;
};

/** Result record of one executed shard. */
struct ShardRecord
{
    size_t task = 0;
    size_t shard = 0;
    uint64_t contentHash = 0;
    size_t shots = 0;
    size_t failures = 0;
    /** Worker seconds spent sampling+decoding this shard. */
    double seconds = 0.0;
    /** Decoder counters accumulated over the shard's chunks. */
    BpOsdStats decoder;
};

/** Identity block published at spool creation (manifest.txt). */
struct SpoolManifest
{
    std::string name;
    uint64_t seed = 0;
    /** Content hash of the verbatim spec text (spec.ini). */
    uint64_t specHash = 0;
    double leaseSeconds = 30.0;
};

/** Stable shard id, e.g. "t0003-s00017". */
std::string shardId(size_t task, size_t shard);

/** Text round-trip of a shard descriptor: one key=value record
 *  (kv_record.h) per file, CRC-protected. */
std::string formatShardDescriptor(const ShardDescriptor& d);
/** Throws CorruptRecordError on a bad checksum, std::runtime_error on
 *  malformed fields. */
ShardDescriptor parseShardDescriptor(const std::string& text);

/**
 * Text round-trip of a shard record: one CRC-protected key=value
 * record carrying the decoder counters under "decoder.". Missing
 * counters read as zero and unknown ones are skipped, so records
 * stay readable across counter additions.
 */
std::string formatShardRecord(const ShardRecord& r);
/** Throws CorruptRecordError on a bad checksum, std::runtime_error on
 *  malformed fields. */
ShardRecord parseShardRecord(const std::string& text);

/** Text round-trip of the spool manifest (CRC-protected). Unknown
 *  keys are skipped, so the retry keys older builds wrote still
 *  read. */
std::string formatManifest(const SpoolManifest& m);
/** Throws CorruptRecordError on a bad checksum, std::runtime_error on
 *  malformed input. */
SpoolManifest parseManifest(const std::string& text);

/**
 * Handle to one spool directory. Construction only records the path;
 * initialize() (coordinator) or open() semantics are provided by the
 * member functions below. All filesystem operations are stateless
 * wrappers — any number of Spool objects in any number of processes
 * may point at one directory — but each handle additionally keeps a
 * local monotonic observation history for lease ages, so age queries
 * should go through one handle per process.
 */
class Spool
{
  public:
    explicit Spool(std::string dir);

    const std::string& dir() const { return dir_; }

    /** Transient I/O failures retried by this handle so far (each
     *  filesystem operation retries under the fixed RetryPolicy:
     *  4 attempts, 5 ms base delay). */
    size_t transientRetries() const
    {
        return transientRetries_.load(std::memory_order_relaxed);
    }

    /**
     * Create the directory skeleton and publish manifest + spec text.
     * Idempotent for the same spec; throws std::runtime_error if the
     * spool already holds a *different* campaign (mismatched spec
     * hash), which guards against two coordinators sharing a path.
     */
    void initialize(const SpoolManifest& manifest,
                    const std::string& specText);

    /** True once manifest.txt exists (a coordinator initialized it). */
    bool initialized() const;

    /** Read manifest.txt; throws if absent or malformed. */
    SpoolManifest readManifest() const;

    /** Read the verbatim spec text; throws if absent. */
    std::string readSpecText() const;

    /** The shared artifact-store directory (spool/cache). */
    std::string cacheDir() const;

    /**
     * Publish a shard: write its descriptor to open/<id> via
     * tmp+rename. Skips (returns false) if the shard is already
     * open, claimed, or has a result record — which makes
     * republishing after a coordinator restart safe. A shard with no
     * record can always be published again.
     */
    bool publishShard(const ShardDescriptor& d);

    /**
     * Try to claim the named shard (rename open/<id> -> claimed/<id>).
     * Returns the descriptor on success; false return means another
     * worker won, the shard vanished, or its descriptor was corrupt
     * (in which case it is quarantined, not executed). Fires the
     * `spool.shard.claimed` fault milestone once the rename lands, so
     * a fault plan can kill a worker that holds a claim.
     */
    bool claimShard(const std::string& id, ShardDescriptor& out);

    /** Ids currently in open/, in lexicographic (= merge) order. */
    std::vector<std::string> openShards() const;

    /** Ids currently in claimed/, in lexicographic order. */
    std::vector<std::string> claimedShards() const;

    /** Touch claimed/<id>'s mtime (worker heartbeat). */
    void heartbeat(const std::string& id) const;

    /**
     * Seconds since this handle last observed claimed/<id>'s
     * heartbeat advance, or a negative value if the claim no longer
     * exists. Monotonic-safe: the first observation of a claim (or of
     * a new heartbeat) reads as age 0 and ages by CLOCK_MONOTONIC
     * from there, so a wall-clock step cannot expire a live lease.
     */
    double claimAge(const std::string& id) const;

    /**
     * Return an expired claim to open/ (coordinator reclaim).
     * Returns false if the claim vanished first (the worker finished
     * or another reclaim won).
     */
    bool reclaimShard(const std::string& id);

    /**
     * Bump and return the persistent reclaim counter of a shard
     * (reclaims/<id>). Survives coordinator failover, so a poison
     * shard is detected even across takeovers.
     */
    size_t bumpReclaimCount(const std::string& id);

    /** Current reclaim count of a shard (0 if never reclaimed). */
    size_t reclaimCount(const std::string& id) const;

    /**
     * Move a shard's descriptor (claimed/ first, then open/) to
     * quarantine/. Returns false if neither exists.
     */
    bool quarantineShard(const std::string& id);

    /** Move results/<id>.rec to quarantine/<id>.rec. */
    bool quarantineRecord(const std::string& id);

    /** Move an arbitrary spool-relative file to quarantine/. */
    bool quarantineFile(const std::string& relative);

    /** Names currently in quarantine/, sorted. */
    std::vector<std::string> quarantined() const;

    /** Remove claimed/<id> without a record (retire a claim whose
     *  task already finished). The shard may be published again. */
    bool retireClaim(const std::string& id);

    /**
     * Publish a shard's result record and retire its claim:
     * write results/<id>.rec (tmp+rename), then remove claimed/<id>,
     * or open/<id> if the claim was reclaimed meanwhile. Safe under
     * that race — the record is deterministic, so whichever worker
     * publishes first wins and the other's removal quietly loses.
     */
    void completeShard(const std::string& id, const ShardRecord& r);

    /** True if results/<id>.rec exists. */
    bool hasRecord(const std::string& id) const;

    /** Load results/<id>.rec; throws CorruptRecordError if its
     *  checksum or format is bad, std::runtime_error if absent. */
    ShardRecord readRecord(const std::string& id) const;

    // ---- coordinator lease -------------------------------------

    /**
     * Try to create coord.lease with O_CREAT|O_EXCL (exactly one
     * winner across processes). Returns false if a lease exists.
     */
    bool acquireCoordinatorLease(const std::string& owner);

    /**
     * Steal a (presumed stale) lease: rename it to a unique dead
     * name — exactly one stealer wins the rename — then acquire a
     * fresh lease. Returns true only for the full winner.
     */
    bool stealCoordinatorLease(const std::string& owner);

    /** Touch coord.lease's mtime (coordinator heartbeat). */
    void heartbeatCoordinator() const;

    /** Monotonic-safe age of the coordinator lease, or negative if
     *  no lease exists. Same semantics as claimAge(). */
    double coordinatorLeaseAge() const;

    /** True if coord.lease exists. */
    bool hasCoordinatorLease() const;

    /** Remove coord.lease if this `owner` holds it. */
    void releaseCoordinatorLease(const std::string& owner);

    // ---- journal / generic files -------------------------------

    /** Atomically replace journal.txt (a checkpoint document). */
    void writeJournal(const std::string& text);

    /** Read journal.txt into `out`; false if absent. */
    bool readJournal(std::string& out) const;

    /**
     * Retry-wrapped writeFileAtomic (atomic_file.h) of a
     * spool-relative file (worker records, result.json). Each
     * attempt fires the generic `spool.io.write` fault point, then
     * `point` (may be null) at the commit.
     */
    void writeFile(const std::string& relative, const std::string& text,
                   const char* point = nullptr);

    /** Retry-wrapped readWholeFile of a spool-relative file; each
     *  attempt fires the `spool.io.read` fault point. */
    std::string readFile(const std::string& relative) const;

    /** True if a spool-relative file exists. */
    bool exists(const std::string& relative) const;

    /** Sorted non-hidden names in a spool subdirectory. */
    std::vector<std::string> list(const std::string& subdir) const;

    /**
     * Monotonic-safe age of workers/`name` (a worker's record, whose
     * mtime is its heartbeat), or negative if it is missing. Same
     * observation semantics as claimAge(): the age counts
     * CLOCK_MONOTONIC seconds since this handle last saw the file's
     * mtime change, so an NTP step between heartbeats never
     * misclassifies a live worker as degraded or lost. Call it each
     * coordinator pass so the history accumulates; a first
     * observation reads as age 0 (healthy).
     */
    double workerHealthAge(const std::string& name) const;

    /** Write the DONE marker (coordinator, end of campaign). */
    void markDone();

    /** True once the DONE marker exists. */
    bool done() const;

  private:
    /**
     * Age of `path` since this handle last saw its mtime change,
     * measured on CLOCK_MONOTONIC. First observation = 0; missing
     * file = -1 (and the observation entry is dropped).
     */
    double monotonicAge(const std::string& path) const;

    template <typename Fn>
    auto withRetry(const char* op, const std::string& path,
                   Fn&& fn) const -> decltype(fn())
    {
        return runWithRetry(
            op, path, std::forward<Fn>(fn), [this](size_t) {
                transientRetries_.fetch_add(
                    1, std::memory_order_relaxed);
            });
    }

    std::string dir_;
    mutable std::atomic<size_t> transientRetries_{0};

    struct AgeObservation
    {
        long long mtimeNs = 0;
        double monoSeconds = 0.0;
    };
    mutable std::mutex agesMutex_;
    mutable std::unordered_map<std::string, AgeObservation> ages_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_SPOOL_H
