/**
 * @file
 * The thread pool shared by every campaign: one FIFO job queue.
 *
 * Jobs start in submission order, on whichever worker is free. The
 * pool never executes jobs on the submitting thread; campaign
 * coordination stays on the caller while all sampling, compiling and
 * DEM building runs on workers.
 */

#ifndef CYCLONE_CAMPAIGN_THREAD_POOL_H
#define CYCLONE_CAMPAIGN_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cyclone {

/** Fixed-size pool of workers taking jobs from one FIFO queue. */
class ThreadPool
{
  public:
    /** @param threads worker count (0 = hardware concurrency). */
    explicit ThreadPool(size_t threads = 0);

    /** Runs every queued job, including those queued meanwhile by
     *  running jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /** Enqueue a job; never runs inline on the calling thread. */
    void submit(std::function<void()> job);

    /**
     * Index of the current pool worker in [0, size()), or -1 when
     * called from a thread the pool does not own. Lets jobs address
     * per-worker scratch state (decoders, sample buffers) without
     * locking.
     */
    static int workerIndex();

  private:
    void workerLoop(size_t self);

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> jobs_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_THREAD_POOL_H
