#include "campaign/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/fault_plan.h"
#include "campaign/retry_policy.h"

namespace cyclone {

namespace {

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

} // namespace

void
writeFileAtomic(const std::string& path, const std::string& text,
                const char* point)
{
    FaultDecision f;
    if (point != nullptr) {
        f = faultPoint(point);
        if (f.transient)
            throw TransientIoError(
                std::string("injected transient fault at ") + point +
                ": " + path);
    }
    // The temp name must be a DOT-PREFIXED basename in the same
    // directory: directory scans skip dotted entries, so an in-flight
    // publish can never be claimed before its final rename lands, and
    // rename stays same-filesystem atomic.
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
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        // The stream buffers a short payload, so its write error
        // (EFBIG, ENOSPC) may surface only at the flush or the close.
        out.flush();
        out.close();
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
readWholeFile(const std::string& path, const char* point)
{
    if (point != nullptr && faultPoint(point).transient)
        throw TransientIoError("injected transient read fault: " +
                               path);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throwIo("cannot read: " + path, errno);
    // Reserve the file's length up front: a store blob can run to
    // megabytes, and a buffer grown by doubling, then copied out,
    // holds up to three times that at its peak.
    std::string text;
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        text.reserve(static_cast<size_t>(st.st_size));
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            text.append(buf, static_cast<size_t>(n));
        } else if (n == 0) {
            break;
        } else if (errno != EINTR) {
            const int err = errno;
            ::close(fd);
            throwIo("read failed: " + path, err);
        }
    }
    ::close(fd);
    return text;
}

bool
moveToQuarantine(const std::string& root, const std::string& relative)
{
    const std::string dir = root + "/quarantine";
    // EEXIST is the usual outcome; any other failure shows up as a
    // failed rename below.
    ::mkdir(dir.c_str(), 0777);
    const size_t slash = relative.find_last_of('/');
    const std::string base = slash == std::string::npos
        ? relative
        : relative.substr(slash + 1);
    return std::rename((root + "/" + relative).c_str(),
                       (dir + "/" + base).c_str()) == 0;
}

} // namespace cyclone
