/**
 * @file
 * Bounded exponential-backoff retries for transient spool filesystem
 * failures.
 *
 * The file primitives (atomic_file.h) classify I/O errors: errno
 * values that plausibly clear on their own (EIO, ENOSPC, EAGAIN,
 * EINTR, ESTALE — the NFS hiccup family) surface as TransientIoError,
 * everything else as a plain runtime_error. runWithRetry() retries
 * only the transient kind, under one fixed schedule (a pure function
 * of the attempt, so backoff timing is unit-testable without
 * sleeping), and after the attempt budget throws SpoolIoError naming
 * the operation and path — campaigns fail with "write spool/results/
 * t0001-s00002.rec failed after 4 attempts", not a bare EIO from
 * somewhere in a 500-line merge loop.
 */

#ifndef CYCLONE_CAMPAIGN_RETRY_POLICY_H
#define CYCLONE_CAMPAIGN_RETRY_POLICY_H

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

namespace cyclone {

/** An I/O failure worth retrying (injected or classified errno). */
struct TransientIoError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Terminal spool I/O failure: every retry attempt was consumed by
 * transient errors. Carries the operation ("write", "read", ...) and
 * the path so callers and logs can name the failing file.
 */
struct SpoolIoError : public std::runtime_error
{
    SpoolIoError(std::string op, std::string path_,
                 const std::string& cause, size_t attempts_)
        : std::runtime_error("spool " + op + " " + path_ +
                             " failed after " +
                             std::to_string(attempts_) +
                             " attempts: " + cause),
          operation(std::move(op)), path(std::move(path_)),
          attempts(attempts_)
    {}

    std::string operation;
    std::string path;
    size_t attempts;
};

/** The one backoff schedule every spool handle retries under:
 *  delay(k) = min(cap, base * 2^(k-1)). */
struct RetryPolicy
{
    /** Total tries, including the first. */
    static constexpr size_t kMaxAttempts = 4;
    static constexpr double kBaseDelaySeconds = 0.005;
    static constexpr double kMaxDelaySeconds = 0.25;

    /**
     * Delay in seconds before retry attempt `attempt` (1-based: the
     * delay after the attempt'th failure). Pure — the same attempt
     * always yields the same delay.
     */
    static double delayFor(size_t attempt);
};

/** Sleep helper shared by retry loops (seconds, sub-second ok). */
void retrySleep(double seconds);

/**
 * Run `fn`, retrying on TransientIoError per RetryPolicy. `onRetry`
 * (if set) observes each transient failure (called with the 1-based
 * attempt number) before the backoff sleep. Non-transient exceptions
 * propagate immediately; exhausting the budget throws SpoolIoError.
 */
template <typename Fn>
auto
runWithRetry(const char* operation, const std::string& path, Fn&& fn,
             const std::function<void(size_t)>& onRetry = nullptr)
    -> decltype(fn())
{
    for (size_t attempt = 1;; ++attempt) {
        try {
            return fn();
        } catch (const TransientIoError& ex) {
            if (onRetry)
                onRetry(attempt);
            if (attempt >= RetryPolicy::kMaxAttempts)
                throw SpoolIoError(operation, path, ex.what(),
                                   attempt);
            retrySleep(RetryPolicy::delayFor(attempt));
        }
    }
}

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_RETRY_POLICY_H
