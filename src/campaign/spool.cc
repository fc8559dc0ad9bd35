#include "campaign/spool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/content_hash.h"
#include "campaign/fault_plan.h"

namespace cyclone {

namespace {

constexpr const char* kDescriptorMagic = "cyclone-shard v3";
constexpr const char* kRecordMagic = "cyclone-shard-result v3";
constexpr const char* kManifestMagic = "cyclone-spool v2";
constexpr const char* kLeaseFile = "coord.lease";
constexpr const char* kJournalFile = "journal.txt";

// Record fields besides the 64-bit hashes and seeds, which are
// written in hex.
const StatField<ShardDescriptor> kDescriptorFields[] = {
    {"task", &ShardDescriptor::task},
    {"shard", &ShardDescriptor::shard},
    {"first_chunk", &ShardDescriptor::firstChunk},
    {"num_chunks", &ShardDescriptor::numChunks},
};

const StatField<ShardRecord> kRecordFields[] = {
    {"task", &ShardRecord::task},
    {"shard", &ShardRecord::shard},
    {"shots", &ShardRecord::shots},
    {"failures", &ShardRecord::failures},
    {"seconds", &ShardRecord::seconds, MergeRule::Sum, FieldKind::Timing},
};

const StatField<SpoolManifest> kManifestFields[] = {
    {"name", &SpoolManifest::name},
    {"lease_seconds", &SpoolManifest::leaseSeconds},
};

/** The first record tagged `tag` of a parsed document. */
KvRecord
recordTagged(std::vector<KvRecord> records, const char* tag,
             const char* what)
{
    for (KvRecord& rec : records)
        if (rec.tag() == tag)
            return std::move(rec);
    throw std::runtime_error(std::string(what) + ": missing " + tag +
                             " record");
}

/** Errno values worth retrying: the transient I/O family (flaky
 *  disks, NFS hiccups, brief out-of-space). */
bool
transientErrno(int err)
{
    return err == EIO || err == ENOSPC || err == EAGAIN ||
           err == EINTR || err == ESTALE
#ifdef EDQUOT
           || err == EDQUOT
#endif
        ;
}

[[noreturn]] void
throwIo(const std::string& message, int err)
{
    std::string full = message;
    if (err != 0)
        full += " (" + std::string(std::strerror(err)) + ")";
    if (transientErrno(err))
        throw TransientIoError(full);
    throw std::runtime_error(full);
}

void
makeDir(const std::string& path)
{
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error("cannot create directory: " + path +
                                 " (" + std::strerror(errno) + ")");
}

std::vector<std::string>
listDir(const std::string& path)
{
    std::vector<std::string> names;
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr)
        return names;
    while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..")
            continue;
        // Skip in-flight tmp files from concurrent atomic writers.
        // spoolWriteAtomic dot-prefixes its temp names, but match
        // anywhere so a stray suffix-style tmp can never be claimed
        // and executed as if it were a published shard.
        if (name.find(".tmp-") != std::string::npos ||
            name.rfind(".", 0) == 0)
            continue;
        names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
monotonicSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

std::string
shardId(size_t task, size_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "t%04zu-s%05zu", task, shard);
    return buf;
}

std::string
formatShardDescriptor(const ShardDescriptor& d)
{
    KvRecord rec("shard");
    rec.putHex("content_hash", d.contentHash);
    rec.putHex("task_seed", d.taskSeed);
    rec.putFields(kDescriptorFields, d);
    return formatRecords(kDescriptorMagic, {rec});
}

ShardDescriptor
parseShardDescriptor(const std::string& text)
{
    const char* what = "shard descriptor";
    const KvRecord rec = recordTagged(
        parseRecords(text, kDescriptorMagic, what), "shard", what);
    ShardDescriptor d;
    rec.getFields(kDescriptorFields, d);
    d.contentHash = rec.hex("content_hash");
    d.taskSeed = rec.hex("task_seed");
    return d;
}

std::string
formatShardRecord(const ShardRecord& r)
{
    KvRecord rec("shard");
    rec.putHex("content_hash", r.contentHash);
    rec.putFields(kRecordFields, r);
    rec.putFields(BpOsdStats::fields(), r.decoder, "decoder.");
    return formatRecords(kRecordMagic, {rec});
}

ShardRecord
parseShardRecord(const std::string& text)
{
    const char* what = "shard record";
    const KvRecord rec = recordTagged(
        parseRecords(text, kRecordMagic, what), "shard", what);
    ShardRecord r;
    rec.getFields(kRecordFields, r);
    r.contentHash = rec.hex("content_hash");
    rec.getFields(BpOsdStats::fields(), r.decoder, "decoder.");
    return r;
}

std::string
formatManifest(const SpoolManifest& m)
{
    KvRecord rec("manifest");
    rec.putHex("spec_hash", m.specHash);
    rec.putHex("seed", m.seed);
    rec.putFields(kManifestFields, m);
    return formatRecords(kManifestMagic, {rec});
}

SpoolManifest
parseManifest(const std::string& text)
{
    const char* what = "spool manifest";
    const KvRecord rec = recordTagged(
        parseRecords(text, kManifestMagic, what), "manifest", what);
    SpoolManifest m;
    rec.getFields(kManifestFields, m);
    m.seed = rec.hex("seed");
    m.specHash = rec.hex("spec_hash");
    return m;
}

void
spoolWriteAtomic(const std::string& path, const std::string& text,
                 const char* point)
{
    if (faultPoint("spool.io.write").transient)
        throw TransientIoError("injected transient write fault: " +
                               path);
    FaultDecision f;
    if (point != nullptr) {
        f = faultPoint(point);
        if (f.transient)
            throw TransientIoError(
                std::string("injected transient fault at ") + point +
                ": " + path);
    }
    // The temp name must be a DOT-PREFIXED basename in the same
    // directory: directory scans (listDir) skip dotted tmp entries,
    // so an in-flight publish can never be claimed before its final
    // rename lands, and rename stays same-filesystem atomic.
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, ".tmp-%ld-",
                  static_cast<long>(::getpid()));
    const size_t slash = path.find_last_of('/');
    const std::string tmp = slash == std::string::npos
        ? prefix + path
        : path.substr(0, slash + 1) + prefix + path.substr(slash + 1);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throwIo("cannot open for write: " + tmp, errno);
        out << text;
        out.flush();
        if (!out) {
            const int err = errno;
            std::remove(tmp.c_str());
            throwIo("write failed: " + tmp, err);
        }
    }
    if (f.torn) {
        // Model a non-atomic writer dying mid-write: a truncated
        // prefix of the payload lands on the FINAL path and the
        // process is gone. Readers must detect this via the crc.
        const size_t n = faultTornLength(point, text.size());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(text.data(), static_cast<std::streamsize>(n));
        out.flush();
        std::remove(tmp.c_str());
        faultCrash(point);
    }
    if (f.crashBefore)
        faultCrash(point);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        throwIo("rename failed: " + tmp + " -> " + path, err);
    }
    if (f.crashAfter)
        faultCrash(point);
}

std::string
spoolReadFile(const std::string& path, const char* point)
{
    if (point != nullptr && faultPoint(point).transient)
        throw TransientIoError("injected transient read fault: " +
                               path);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIo("cannot read: " + path, errno);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Spool::Spool(std::string dir) : dir_(std::move(dir)) {}

void
Spool::initialize(const SpoolManifest& manifest,
                  const std::string& specText)
{
    makeDir(dir_);
    makeDir(dir_ + "/open");
    makeDir(dir_ + "/claimed");
    makeDir(dir_ + "/done");
    makeDir(dir_ + "/results");
    makeDir(dir_ + "/reclaims");
    makeDir(dir_ + "/quarantine");
    makeDir(dir_ + "/workers");
    makeDir(cacheDir());
    SpoolManifest m = manifest;
    m.specHash = HashStream().absorb(specText).digest();
    if (initialized()) {
        const SpoolManifest existing = readManifest();
        if (existing.specHash != m.specHash)
            throw std::runtime_error(
                "spool " + dir_ +
                " already holds a different campaign (spec hash " +
                hex(existing.specHash) + " != " + hex(m.specHash) +
                "); use a fresh directory");
        return;
    }
    // Spec first, manifest last: initialized() implies both exist.
    writeFile("spec.ini", specText, "spool.spec.commit");
    writeFile("manifest.txt", formatManifest(m),
              "spool.manifest.commit");
}

bool
Spool::initialized() const
{
    return fileExists(dir_ + "/manifest.txt");
}

SpoolManifest
Spool::readManifest() const
{
    return parseManifest(readFile("manifest.txt"));
}

std::string
Spool::readSpecText() const
{
    return readFile("spec.ini");
}

std::string
Spool::cacheDir() const
{
    return dir_ + "/cache";
}

bool
Spool::publishShard(const ShardDescriptor& d)
{
    const std::string id = shardId(d.task, d.shard);
    if (fileExists(dir_ + "/open/" + id) ||
        fileExists(dir_ + "/claimed/" + id) ||
        fileExists(dir_ + "/done/" + id) ||
        fileExists(dir_ + "/results/" + id + ".rec"))
        return false;
    writeFile("open/" + id, formatShardDescriptor(d),
              "spool.descriptor.commit");
    return true;
}

bool
Spool::claimShard(const std::string& id, ShardDescriptor& out)
{
    const std::string from = dir_ + "/open/" + id;
    const std::string to = dir_ + "/claimed/" + id;
    if (std::rename(from.c_str(), to.c_str()) != 0)
        return false;
    faultMilestone("spool.shard.claimed");
    try {
        out = parseShardDescriptor(withRetry(
            "read", to, [&] { return spoolReadFile(to,
                                                   "spool.io.read"); }));
    } catch (const SpoolIoError&) {
        throw;
    } catch (const std::exception&) {
        // Corrupt descriptor (torn publish): never execute it.
        // Quarantine so the coordinator can republish cleanly.
        quarantineShard(id);
        return false;
    }
    return true;
}

std::vector<std::string>
Spool::openShards() const
{
    return listDir(dir_ + "/open");
}

std::vector<std::string>
Spool::claimedShards() const
{
    return listDir(dir_ + "/claimed");
}

void
Spool::heartbeat(const std::string& id) const
{
    if (faultPoint("spool.heartbeat").freeze)
        return;
    // Refresh both timestamps to "now"; cheap and race-free (a claim
    // that was reclaimed meanwhile just makes this a no-op ENOENT).
    ::utimensat(AT_FDCWD, (dir_ + "/claimed/" + id).c_str(), nullptr,
                0);
}

double
Spool::monotonicAge(const std::string& path) const
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
        std::lock_guard<std::mutex> lock(agesMutex_);
        ages_.erase(path);
        return -1.0;
    }
    const long long mtimeNs =
        static_cast<long long>(st.st_mtim.tv_sec) * 1000000000ll +
        static_cast<long long>(st.st_mtim.tv_nsec);
    const double now = monotonicSeconds();
    std::lock_guard<std::mutex> lock(agesMutex_);
    const auto [it, inserted] = ages_.try_emplace(path);
    AgeObservation& obs = it->second;
    if (inserted || obs.mtimeNs != mtimeNs) {
        // First sighting, or the heartbeat advanced: restart the
        // local monotonic age from zero. Wall-clock steps change
        // neither the stored mtime nor CLOCK_MONOTONIC, so they
        // cannot expire (or immortalize) a lease.
        obs.mtimeNs = mtimeNs;
        obs.monoSeconds = now;
        return 0.0;
    }
    return now - obs.monoSeconds;
}

double
Spool::claimAge(const std::string& id) const
{
    return monotonicAge(dir_ + "/claimed/" + id);
}

bool
Spool::reclaimShard(const std::string& id)
{
    const std::string from = dir_ + "/claimed/" + id;
    const std::string to = dir_ + "/open/" + id;
    return std::rename(from.c_str(), to.c_str()) == 0;
}

size_t
Spool::bumpReclaimCount(const std::string& id)
{
    makeDir(dir_ + "/reclaims");
    const std::string path = dir_ + "/reclaims/" + id;
    size_t count = reclaimCount(id) + 1;
    try {
        spoolWriteAtomic(path, std::to_string(count) + "\n");
    } catch (const std::exception&) {
        // Best effort: a lost counter update only delays poison
        // detection by one reclaim.
    }
    return count;
}

size_t
Spool::reclaimCount(const std::string& id) const
{
    const std::string path = dir_ + "/reclaims/" + id;
    if (!fileExists(path))
        return 0;
    try {
        return static_cast<size_t>(
            std::stoull(spoolReadFile(path)));
    } catch (const std::exception&) {
        return 0;
    }
}

bool
Spool::quarantineShard(const std::string& id)
{
    makeDir(dir_ + "/quarantine");
    const std::string q = dir_ + "/quarantine/" + id;
    if (std::rename((dir_ + "/claimed/" + id).c_str(), q.c_str()) == 0)
        return true;
    return std::rename((dir_ + "/open/" + id).c_str(), q.c_str()) ==
           0;
}

bool
Spool::quarantineRecord(const std::string& id)
{
    return quarantineFile("results/" + id + ".rec");
}

bool
Spool::quarantineFile(const std::string& relative)
{
    makeDir(dir_ + "/quarantine");
    const size_t slash = relative.find_last_of('/');
    const std::string base = slash == std::string::npos
        ? relative
        : relative.substr(slash + 1);
    return std::rename((dir_ + "/" + relative).c_str(),
                       (dir_ + "/quarantine/" + base).c_str()) == 0;
}

std::vector<std::string>
Spool::quarantined() const
{
    return listDir(dir_ + "/quarantine");
}

bool
Spool::reviveShard(const std::string& id)
{
    return std::rename((dir_ + "/done/" + id).c_str(),
                       (dir_ + "/open/" + id).c_str()) == 0;
}

bool
Spool::retireClaim(const std::string& id)
{
    return std::rename((dir_ + "/claimed/" + id).c_str(),
                       (dir_ + "/done/" + id).c_str()) == 0;
}

void
Spool::completeShard(const std::string& id, const ShardRecord& r)
{
    writeFile("results/" + id + ".rec", formatShardRecord(r),
              "spool.record.commit");
    // Retire the descriptor. The claim may have been reclaimed to
    // open/ meanwhile (slow heartbeat); move it to done/ from either
    // place so nobody re-executes a shard that already has a record.
    const std::string done = dir_ + "/done/" + id;
    if (std::rename((dir_ + "/claimed/" + id).c_str(), done.c_str()) !=
        0)
        std::rename((dir_ + "/open/" + id).c_str(), done.c_str());
}

bool
Spool::hasRecord(const std::string& id) const
{
    return fileExists(dir_ + "/results/" + id + ".rec");
}

ShardRecord
Spool::readRecord(const std::string& id) const
{
    const std::string text = readFile("results/" + id + ".rec");
    try {
        return parseShardRecord(text);
    } catch (const CorruptRecordError&) {
        throw;
    } catch (const std::exception& ex) {
        throw CorruptRecordError("record " + id + ": " + ex.what());
    }
}

bool
Spool::acquireCoordinatorLease(const std::string& owner)
{
    const std::string path = dir_ + "/" + kLeaseFile;
    const int fd = ::open(path.c_str(),
                          O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                          0666);
    if (fd < 0)
        return false;
    const std::string text = "owner " + owner + "\n";
    (void)!::write(fd, text.data(), text.size());
    ::close(fd);
    return true;
}

bool
Spool::stealCoordinatorLease(const std::string& owner)
{
    static std::atomic<unsigned> counter{0};
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, ".dead-%ld-%u",
                  static_cast<long>(::getpid()),
                  counter.fetch_add(1));
    const std::string path = dir_ + "/" + kLeaseFile;
    // Exactly one stealer wins this rename; losers see ENOENT and go
    // back to waiting on the new owner's lease.
    if (std::rename(path.c_str(), (path + suffix).c_str()) != 0)
        return false;
    return acquireCoordinatorLease(owner);
}

void
Spool::heartbeatCoordinator() const
{
    if (faultPoint("coord.lease.heartbeat").freeze)
        return;
    ::utimensat(AT_FDCWD, (dir_ + "/" + kLeaseFile).c_str(), nullptr,
                0);
}

double
Spool::coordinatorLeaseAge() const
{
    return monotonicAge(dir_ + "/" + kLeaseFile);
}

bool
Spool::hasCoordinatorLease() const
{
    return fileExists(dir_ + "/" + kLeaseFile);
}

void
Spool::releaseCoordinatorLease(const std::string& owner)
{
    const std::string path = dir_ + "/" + kLeaseFile;
    try {
        const std::string text = spoolReadFile(path);
        if (text.rfind("owner " + owner + "\n", 0) != 0)
            return; // someone stole it; not ours to remove
    } catch (const std::exception&) {
        return;
    }
    ::unlink(path.c_str());
}

void
Spool::writeJournal(const std::string& text)
{
    writeFile(kJournalFile, text, "spool.journal.commit");
}

bool
Spool::readJournal(std::string& out) const
{
    if (!exists(kJournalFile))
        return false;
    out = readFile(kJournalFile);
    return true;
}

void
Spool::writeFile(const std::string& relative, const std::string& text,
                 const char* point)
{
    const std::string path = dir_ + "/" + relative;
    withRetry("write", path,
              [&] { spoolWriteAtomic(path, text, point); });
}

std::string
Spool::readFile(const std::string& relative) const
{
    const std::string path = dir_ + "/" + relative;
    return withRetry("read", path, [&] {
        return spoolReadFile(path, "spool.io.read");
    });
}

bool
Spool::exists(const std::string& relative) const
{
    return fileExists(dir_ + "/" + relative);
}

std::vector<std::string>
Spool::list(const std::string& subdir) const
{
    return listDir(dir_ + "/" + subdir);
}

double
Spool::workerHealthAge(const std::string& name) const
{
    return monotonicAge(dir_ + "/workers/" + name);
}

void
Spool::markDone()
{
    writeFile("DONE", "done\n", "spool.done.commit");
}

bool
Spool::done() const
{
    return fileExists(dir_ + "/DONE");
}

} // namespace cyclone
