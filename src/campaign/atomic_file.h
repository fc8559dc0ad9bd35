/**
 * @file
 * The one way the campaign stack writes, reads and sets aside a file.
 *
 * Everything a campaign persists — spool manifests, descriptors,
 * records, journals, worker records, artifact-store blobs,
 * checkpoints, the runner's JSON/CSV and the benches' BENCH_*.json —
 * is published by writeFileAtomic: a tmp file in the target's
 * directory, flushed, closed and checked, then renamed over the
 * target. A reader therefore sees the old file or the whole new one,
 * never a prefix, and a write that fails (a full disk, a file-size
 * limit) leaves the old file and no tmp file behind.
 *
 * I/O errors are classified by errno: the values that plausibly clear
 * on their own (EIO, ENOSPC, EAGAIN, EINTR, ESTALE, EDQUOT — the NFS
 * hiccup family) throw TransientIoError, which runWithRetry
 * (retry_policy.h) retries; anything else throws std::runtime_error.
 */

#ifndef CYCLONE_CAMPAIGN_ATOMIC_FILE_H
#define CYCLONE_CAMPAIGN_ATOMIC_FILE_H

#include <string>

namespace cyclone {

/**
 * Replace `path` with `text` atomically. The tmp file is a
 * dot-prefixed, pid-tagged name in the same directory, so concurrent
 * writers never share one, directory scans skip it, and the rename
 * stays on one filesystem. On any failure the tmp file is removed and
 * `path` is left as it was.
 *
 * `point` names the fault point guarding the commit (fault_plan.h):
 * `transient` throws before anything is written, `torn` leaves a
 * truncated payload on `path` and crashes, `crash_before` and
 * `crash_after` crash on either side of the rename. Null fires none.
 */
void writeFileAtomic(const std::string& path, const std::string& text,
                     const char* point = nullptr);

/** The whole content of `path`. A non-null `point` throws
 *  TransientIoError when its `transient` rule fires. */
std::string readWholeFile(const std::string& path,
                          const char* point = nullptr);

/**
 * Move `root`/`relative` to `root`/quarantine/ under its base name,
 * creating the quarantine directory if needed. Returns false if the
 * file is gone (another process may have moved it first) or cannot be
 * moved. Never throws.
 */
bool moveToQuarantine(const std::string& root,
                      const std::string& relative);

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_ATOMIC_FILE_H
