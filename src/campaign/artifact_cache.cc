#include "campaign/artifact_cache.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/atomic_file.h"
#include "common/crc32.h"

namespace cyclone {

namespace {

// Binary artifact framing. All integers and doubles are stored in
// native byte order; the endian word rejects blobs from a
// foreign-endian host instead of silently misreading them. Version 2
// added a CRC-32 of the payload to the header, so torn or bit-rotted
// store blobs are detected (and quarantined) instead of deserialized
// into garbage that happens to fit the field layout.
constexpr uint32_t kArtifactMagic = 0x43594152u; // "CYAR"
constexpr uint32_t kArtifactEndian = 0x01020304u;
constexpr uint32_t kCompileKind = 1;
constexpr uint32_t kDemKind = 2;
constexpr uint32_t kArtifactVersion = 2;

/** Bytes of the fixed header: magic, endian, version, kind, crc. */
constexpr size_t kArtifactHeaderBytes = 5 * sizeof(uint32_t);

struct ByteWriter
{
    std::string bytes;

    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void str(const std::string& s)
    {
        u64(s.size());
        bytes.append(s);
    }
    void raw(const void* p, size_t n)
    {
        bytes.append(static_cast<const char*>(p), n);
    }
};

struct ByteReader
{
    const std::string& bytes;
    size_t pos = 0;

    explicit ByteReader(const std::string& b) : bytes(b) {}

    uint32_t u32() { return rawAs<uint32_t>(); }
    uint64_t u64() { return rawAs<uint64_t>(); }
    double f64() { return rawAs<double>(); }

    std::string str()
    {
        const uint64_t n = u64();
        if (n > bytes.size() - pos)
            throw std::runtime_error("artifact blob truncated (string)");
        std::string s = bytes.substr(pos, n);
        pos += n;
        return s;
    }

    template <typename T>
    T rawAs()
    {
        T v;
        if (sizeof v > bytes.size() - pos)
            throw std::runtime_error("artifact blob truncated");
        std::memcpy(&v, bytes.data() + pos, sizeof v);
        pos += sizeof v;
        return v;
    }
};

void
writeHeader(ByteWriter& w, uint32_t kind)
{
    w.u32(kArtifactMagic);
    w.u32(kArtifactEndian);
    w.u32(kArtifactVersion);
    w.u32(kind);
    w.u32(0); // payload crc, patched by finishArtifact
}

/** Patch the header's payload-crc word once the body is complete. */
std::string
finishArtifact(ByteWriter&& w)
{
    const uint32_t crc =
        crc32(w.bytes.data() + kArtifactHeaderBytes,
              w.bytes.size() - kArtifactHeaderBytes);
    std::memcpy(&w.bytes[4 * sizeof(uint32_t)], &crc, sizeof crc);
    return std::move(w.bytes);
}

void
checkHeader(ByteReader& r, uint32_t kind)
{
    if (r.u32() != kArtifactMagic)
        throw std::runtime_error("not a cyclone artifact blob");
    if (r.u32() != kArtifactEndian)
        throw std::runtime_error("artifact blob has foreign endianness");
    if (r.u32() != kArtifactVersion)
        throw std::runtime_error("unsupported artifact blob version");
    if (r.u32() != kind)
        throw std::runtime_error("artifact blob has the wrong kind");
    const uint32_t want = r.u32();
    const uint32_t got = crc32(r.bytes.data() + r.pos,
                               r.bytes.size() - r.pos);
    if (want != got)
        throw std::runtime_error(
            "artifact blob payload checksum mismatch");
}

/** File name of the store blob of `kind` under `key`. */
std::string
blobName(const char* kind, uint64_t key)
{
    char name[64];
    std::snprintf(name, sizeof name, "%s-%016llx.bin", kind,
                  static_cast<unsigned long long>(key));
    return name;
}

} // namespace

std::span<const StatField<CacheStats>>
CacheStats::fields()
{
    using S = CacheStats;
    static const StatField<S> kFields[] = {
        {"compile_hits", &S::compileHits},
        {"compile_misses", &S::compileMisses},
        {"dem_hits", &S::demHits},
        {"dem_misses", &S::demMisses},
        {"compile_store_hits", &S::compileStoreHits},
        {"dem_store_hits", &S::demStoreHits},
        {"compile_bytes", &S::compileBytes},
        {"dem_bytes", &S::demBytes},
        {"quarantined", &S::quarantinedBlobs},
        {"compile_seconds", &S::compileSeconds, MergeRule::Sum,
         FieldKind::Timing},
        {"dem_build_seconds", &S::demBuildSeconds, MergeRule::Sum,
         FieldKind::Timing},
    };
    return kFields;
}

std::string
serializeCompileResult(const CompileResult& result)
{
    ByteWriter w;
    writeHeader(w, kCompileKind);
    w.str(result.compilerName);
    w.str(result.topologyName);
    w.f64(result.execTimeUs);
    w.f64(result.serialized.gateUs);
    w.f64(result.serialized.shuttleUs);
    w.f64(result.serialized.junctionUs);
    w.f64(result.serialized.swapUs);
    w.f64(result.serialized.measureUs);
    w.f64(result.serialized.prepUs);
    w.u64(result.numTraps);
    w.u64(result.numJunctions);
    w.u64(result.numAncilla);
    w.u64(result.trapRoadblocks);
    w.u64(result.junctionRoadblocks);
    w.u64(result.rebalances);
    w.u64(result.gateOps);
    w.u64(result.shuttleOps);
    w.u64(result.swapOps);
    w.u32(result.schedule.numResources);
    w.u32(result.schedule.numIons);
    w.u64(result.schedule.ops.size());
    for (const TimedOp& op : result.schedule.ops) {
        w.u32(static_cast<uint32_t>(op.category));
        w.u32(op.resource);
        w.u32(op.ionA);
        w.u32(op.ionB);
        w.f64(op.startUs);
        w.f64(op.durationUs);
        w.f64(op.waitUs);
        w.u32(op.counted ? 1u : 0u);
    }
    return finishArtifact(std::move(w));
}

CompileResult
deserializeCompileResult(const std::string& bytes)
{
    ByteReader r(bytes);
    checkHeader(r, kCompileKind);
    CompileResult result;
    result.compilerName = r.str();
    result.topologyName = r.str();
    result.execTimeUs = r.f64();
    result.serialized.gateUs = r.f64();
    result.serialized.shuttleUs = r.f64();
    result.serialized.junctionUs = r.f64();
    result.serialized.swapUs = r.f64();
    result.serialized.measureUs = r.f64();
    result.serialized.prepUs = r.f64();
    result.numTraps = r.u64();
    result.numJunctions = r.u64();
    result.numAncilla = r.u64();
    result.trapRoadblocks = r.u64();
    result.junctionRoadblocks = r.u64();
    result.rebalances = r.u64();
    result.gateOps = r.u64();
    result.shuttleOps = r.u64();
    result.swapOps = r.u64();
    result.schedule.numResources = r.u32();
    result.schedule.numIons = r.u32();
    const uint64_t nOps = r.u64();
    if (nOps > (bytes.size() - r.pos) / 8)
        throw std::runtime_error("artifact blob truncated (ops)");
    result.schedule.ops.reserve(nOps);
    for (uint64_t i = 0; i < nOps; ++i) {
        TimedOp op;
        const uint32_t cat = r.u32();
        if (cat >= kNumOpCategories)
            throw std::runtime_error("artifact blob has a bad category");
        op.category = static_cast<OpCategory>(cat);
        op.resource = r.u32();
        op.ionA = r.u32();
        op.ionB = r.u32();
        op.startUs = r.f64();
        op.durationUs = r.f64();
        op.waitUs = r.f64();
        op.counted = r.u32() != 0;
        result.schedule.ops.push_back(op);
    }
    return result;
}

std::string
serializeDem(const DetectorErrorModel& dem)
{
    ByteWriter w;
    writeHeader(w, kDemKind);
    w.u64(dem.numDetectors);
    w.u64(dem.numObservables);
    w.u64(dem.mechanisms.size());
    for (const DemMechanism& m : dem.mechanisms) {
        w.f64(m.probability);
        w.u64(m.observables);
        w.u64(m.detectors.size());
        w.raw(m.detectors.data(),
              m.detectors.size() * sizeof(uint32_t));
    }
    return finishArtifact(std::move(w));
}

DetectorErrorModel
deserializeDem(const std::string& bytes)
{
    ByteReader r(bytes);
    checkHeader(r, kDemKind);
    DetectorErrorModel dem;
    dem.numDetectors = r.u64();
    dem.numObservables = r.u64();
    const uint64_t nMech = r.u64();
    if (nMech > (bytes.size() - r.pos) / 8)
        throw std::runtime_error("artifact blob truncated (mechanisms)");
    dem.mechanisms.reserve(nMech);
    for (uint64_t i = 0; i < nMech; ++i) {
        DemMechanism m;
        m.probability = r.f64();
        m.observables = r.u64();
        const uint64_t nDet = r.u64();
        if (nDet > (bytes.size() - r.pos) / sizeof(uint32_t))
            throw std::runtime_error(
                "artifact blob truncated (detectors)");
        m.detectors.resize(nDet);
        if (nDet > 0) {
            std::memcpy(m.detectors.data(), bytes.data() + r.pos,
                        nDet * sizeof(uint32_t));
            r.pos += nDet * sizeof(uint32_t);
        }
        dem.mechanisms.push_back(std::move(m));
    }
    return dem;
}

template <typename T>
std::shared_ptr<const T>
ArtifactCache::getOrBuild(
    std::unordered_map<uint64_t, std::shared_ptr<Slot<T>>>& map,
    uint64_t key, const std::function<T()>& build, const char* kind,
    size_t& hits, size_t& misses, size_t& storeHits, size_t& bytes,
    double& seconds, std::string (*serialize)(const T&),
    T (*deserialize)(const std::string&))
{
    std::shared_ptr<Slot<T>> slot;
    bool isBuilder = false;
    std::string store;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = map.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<Slot<T>>();
            isBuilder = true;
            ++misses;
        } else {
            ++hits;
        }
        slot = it->second;
        store = storeDir_;
    }

    if (!isBuilder) {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return slot->ready; });
        if (slot->error)
            std::rethrow_exception(slot->error);
        return slot->value;
    }

    std::shared_ptr<const T> value;
    std::exception_ptr error;
    size_t valueBytes = 0;
    double buildSeconds = 0.0;
    bool fromStore = false;
    bool quarantined = false;
    try {
        // Store first: another process may already have published
        // these bytes. A corrupt or foreign blob is quarantined and
        // falls through to a local rebuild, which publishes fresh
        // bytes under the original name.
        const std::string name = blobName(kind, key);
        if (!store.empty()) {
            std::optional<std::string> blob;
            try {
                blob = readWholeFile(store + "/" + name);
            } catch (const std::exception&) {
                // No blob (or an unreadable one): build it.
            }
            if (blob) {
                try {
                    value = std::make_shared<const T>(deserialize(*blob));
                    valueBytes = blob->size();
                    fromStore = true;
                } catch (const std::exception&) {
                    value.reset();
                    moveToQuarantine(store, name);
                    quarantined = true;
                }
            }
        }
        if (!value) {
            const auto t0 = std::chrono::steady_clock::now();
            value = std::make_shared<const T>(build());
            buildSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
            const std::string blob = serialize(*value);
            valueBytes = blob.size();
            if (!store.empty()) {
                try {
                    writeFileAtomic(store + "/" + name, blob,
                                    "cache.blob.commit");
                } catch (const std::exception&) {
                    // Best effort: the artifact stays local-only and
                    // the next process to miss builds and publishes it.
                }
            }
        }
    } catch (...) {
        error = std::current_exception();
    }
    {
        // Notify under the lock so the cache cannot be destroyed
        // between a waiter waking and this call completing.
        std::lock_guard<std::mutex> lock(mutex_);
        slot->value = value;
        slot->error = error;
        slot->ready = true;
        if (!error) {
            bytes += valueBytes;
            seconds += buildSeconds;
            if (fromStore)
                ++storeHits;
        }
        if (quarantined)
            ++stats_.quarantinedBlobs;
        ready_.notify_all();
    }
    if (error)
        std::rethrow_exception(error);
    return value;
}

std::shared_ptr<const CompileResult>
ArtifactCache::getOrBuildCompile(uint64_t key,
                                 const std::function<CompileResult()>& build)
{
    return getOrBuild(compiles_, key, build, "compile",
                      stats_.compileHits, stats_.compileMisses,
                      stats_.compileStoreHits, stats_.compileBytes,
                      stats_.compileSeconds, &serializeCompileResult,
                      &deserializeCompileResult);
}

std::shared_ptr<const DetectorErrorModel>
ArtifactCache::getOrBuildDem(uint64_t key,
                             const std::function<DetectorErrorModel()>& build)
{
    return getOrBuild(dems_, key, build, "dem", stats_.demHits,
                      stats_.demMisses, stats_.demStoreHits,
                      stats_.demBytes, stats_.demBuildSeconds,
                      &serializeDem, &deserializeDem);
}

void
ArtifactCache::attachStore(const std::string& dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    storeDir_ = dir;
}

std::string
ArtifactCache::storeDir() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return storeDir_;
}

CacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cyclone
