/**
 * @file
 * Content-hash keyed cache of compiled artifacts shared across tasks
 * — and, optionally, across processes through an attached disk store.
 *
 * The two expensive non-sampling stages of an LER point are compiling
 * one syndrome round to a device (CompileResult) and folding the noisy
 * memory circuit into a detector error model. Across a figure suite
 * most tasks repeat both: every p of a (code, architecture) sweep
 * shares the compile, and repeated points share the DEM. The cache
 * keys each artifact by a content hash of exactly what determines it
 * and dedupes concurrent builds, so one shared instance serves every
 * campaign on the pool.
 *
 * With attachStore(dir) the cache additionally persists every artifact
 * under its content hash as a binary file (published by
 * writeFileAtomic, atomic_file.h) and consults the directory before
 * building. N coordinator/worker processes pointing at one store
 * directory therefore compile each distinct (code, architecture)
 * point once fleet-wide: whichever process resolves it first
 * publishes the bytes, everyone else deserializes them.
 * Serialization round-trips every double bit-
 * exactly (including the TimedSchedule IR, whose content hash keys
 * per-qubit idle DEMs), so a loaded artifact is indistinguishable from
 * a locally built one.
 *
 * Accounting: a *miss* is a lookup that had to leave the in-memory
 * map; a *store hit* is a miss satisfied by deserializing the store
 * instead of running the builder; a *hit* reused a completed or
 * in-flight in-memory build. Byte counters sum the serialized size of
 * every artifact that entered this cache (built or loaded), giving
 * campaign output a measure of artifact volume. Build seconds sum the
 * time spent in the builders alone.
 */

#ifndef CYCLONE_CAMPAIGN_ARTIFACT_CACHE_H
#define CYCLONE_CAMPAIGN_ARTIFACT_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/stat_fields.h"
#include "compiler/compile_result.h"
#include "dem/dem.h"

namespace cyclone {

/** Hit/miss/byte counters for both cache layers. */
struct CacheStats
{
    size_t compileHits = 0;
    size_t compileMisses = 0;
    size_t demHits = 0;
    size_t demMisses = 0;

    /** Misses satisfied by deserializing the attached store. */
    size_t compileStoreHits = 0;
    size_t demStoreHits = 0;

    /** Serialized bytes of artifacts built or loaded into this cache. */
    size_t compileBytes = 0;
    size_t demBytes = 0;

    /** Store blobs that failed their checksum/framing and were moved
     *  to <store>/quarantine/ before a local rebuild republished
     *  fresh bytes. */
    size_t quarantinedBlobs = 0;

    /** Seconds spent in the compile and DEM builders (timing fields:
     *  store loads and hits add nothing). */
    double compileSeconds = 0.0;
    double demBuildSeconds = 0.0;

    /** The field table (stat_fields.h). */
    static std::span<const StatField<CacheStats>> fields();
};

/**
 * Serialize a CompileResult — summary fields plus the full
 * TimedSchedule IR — to a self-describing binary blob. Doubles are
 * stored bit-exactly; deserialization reproduces the original to the
 * last bit (hashTimedSchedule of the round-trip matches).
 */
std::string serializeCompileResult(const CompileResult& result);

/** Inverse of serializeCompileResult; throws std::runtime_error on a
 *  malformed or foreign-endian blob. */
CompileResult deserializeCompileResult(const std::string& bytes);

/** Serialize a detector error model bit-exactly. */
std::string serializeDem(const DetectorErrorModel& dem);

/** Inverse of serializeDem; throws std::runtime_error on bad input. */
DetectorErrorModel deserializeDem(const std::string& bytes);

/** Thread-safe cache of CompileResults and DetectorErrorModels. */
class ArtifactCache
{
  public:
    /**
     * Return the compile result for `key`, running `build` if absent.
     * Concurrent callers with the same key block until the first
     * caller's build completes and then share its result.
     */
    std::shared_ptr<const CompileResult>
    getOrBuildCompile(uint64_t key,
                      const std::function<CompileResult()>& build);

    /** Same contract for detector error models. */
    std::shared_ptr<const DetectorErrorModel>
    getOrBuildDem(uint64_t key,
                  const std::function<DetectorErrorModel()>& build);

    /**
     * Attach a shared artifact store directory (created if missing).
     * Subsequent misses first try to deserialize
     * `dir/compile-<hash>.bin` / `dir/dem-<hash>.bin`; builds publish
     * their bytes there through writeFileAtomic (atomic_file.h), so
     * concurrent processes never observe a partial file. Publishing is
     * best effort: one that fails (a full disk, a file-size limit)
     * leaves no file and the artifact local-only. Blobs carry a
     * payload CRC-32 in their header; a blob that fails its checksum
     * (or framing) is moved to `dir/quarantine/`, counted in
     * CacheStats::quarantinedBlobs, and rebuilt — the rebuild
     * republishes fresh bytes under the original name. Pass "" to
     * detach.
     */
    void attachStore(const std::string& dir);

    /** Attached store directory ("" when detached). */
    std::string storeDir() const;

    /** Snapshot of the accounting counters. */
    CacheStats stats() const;

  private:
    template <typename T>
    struct Slot
    {
        std::shared_ptr<const T> value;
        std::exception_ptr error;
        bool ready = false;
    };

    template <typename T>
    std::shared_ptr<const T>
    getOrBuild(std::unordered_map<uint64_t, std::shared_ptr<Slot<T>>>& map,
               uint64_t key, const std::function<T()>& build,
               const char* kind, size_t& hits, size_t& misses,
               size_t& storeHits, size_t& bytes, double& seconds,
               std::string (*serialize)(const T&),
               T (*deserialize)(const std::string&));

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::unordered_map<uint64_t, std::shared_ptr<Slot<CompileResult>>>
        compiles_;
    std::unordered_map<uint64_t, std::shared_ptr<Slot<DetectorErrorModel>>>
        dems_;
    CacheStats stats_;
    std::string storeDir_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_ARTIFACT_CACHE_H
