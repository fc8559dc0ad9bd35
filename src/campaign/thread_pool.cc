#include "campaign/thread_pool.h"

#include <algorithm>
#include <utility>

namespace cyclone {

namespace {
thread_local int tls_worker_index = -1;
} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    const size_t n = threads > 0
        ? threads
        : std::max<size_t>(1, std::thread::hardware_concurrency());
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        workers_.emplace_back(&ThreadPool::workerLoop, this, i);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_)
        w.join();
}

int
ThreadPool::workerIndex()
{
    return tls_worker_index;
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop(size_t self)
{
    tls_worker_index = static_cast<int>(self);
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
            // Leave only once stopped and drained: a job a running job
            // submits is still taken, at the latest by its submitter.
            if (jobs_.empty())
                return;
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
    }
}

} // namespace cyclone
