#include "util/parallel.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace ssplane {

namespace {

unsigned env_thread_count() noexcept
{
    if (const char* env = std::getenv("SSPLANE_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0) return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::atomic<unsigned> g_requested_threads{0}; // 0 = auto

/// Set while a pool worker runs a task: nested parallel_for goes serial.
thread_local bool t_in_worker = false;

class thread_pool {
public:
    explicit thread_pool(unsigned n_workers)
    {
        workers_.reserve(n_workers);
        for (unsigned i = 0; i < n_workers; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~thread_pool()
    {
        {
            const std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto& w : workers_) w.join();
    }

    unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

    void submit(std::function<void()> task)
    {
        {
            const std::lock_guard lock(mutex_);
            tasks_.push_back(std::move(task));
            OBS_COUNT_SCHED("pool.tasks");
        }
        wake_.notify_one();
    }

private:
    void worker_loop()
    {
        t_in_worker = true;
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock lock(mutex_);
                // A worker that finds the queue empty is about to block —
                // count the wait (idle-worker telemetry, timing-dependent).
                if (!stopping_ && tasks_.empty()) OBS_COUNT_SCHED("pool.steal_waits");
                wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
                if (stopping_ && tasks_.empty()) return;
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
            task();
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

std::mutex g_pool_mutex;
std::unique_ptr<thread_pool> g_pool;

/// The pool, rebuilt when the requested size changed. Caller must not hold
/// tasks in flight across a resize (documented in the header).
thread_pool& pool_for(unsigned n_workers)
{
    const std::lock_guard lock(g_pool_mutex);
    if (!g_pool || g_pool->size() != n_workers)
        g_pool = std::make_unique<thread_pool>(n_workers);
    return *g_pool;
}

/// Completion latch shared by one parallel_for call's chunk tasks.
struct for_state {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;
};

} // namespace

unsigned thread_count() noexcept
{
    const unsigned requested = g_requested_threads.load(std::memory_order_relaxed);
    return requested > 0 ? requested : env_thread_count();
}

void set_thread_count(unsigned n)
{
    g_requested_threads.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t chunk_size)
{
    if (n == 0) return;
    // Deterministic chunking: independent of the worker count so that
    // chunk-indexed reductions reproduce bit-identically everywhere.
    if (chunk_size == 0) chunk_size = (n + 63) / 64;
    if (chunk_size < 1) chunk_size = 1;

    const unsigned workers = thread_count();
    const std::size_t n_chunks = (n + chunk_size - 1) / chunk_size;
    // Chunk geometry is thread-count-invariant by construction, so these
    // two are deterministic; everything about which thread ran what is not.
    OBS_COUNT("pool.parallel_regions");
    OBS_COUNT_N("pool.chunks", n_chunks);
    if (workers <= 1 || t_in_worker || n_chunks == 1) {
        // Serial path visits the same chunk boundaries the pool would, so a
        // body keyed on chunk begin behaves identically either way.
        for (std::size_t c = 0; c < n_chunks; ++c)
            body(c * chunk_size, std::min(n, (c + 1) * chunk_size));
        return;
    }

    thread_pool& pool = pool_for(workers);
    auto state = std::make_shared<for_state>();
    state->remaining = n_chunks;

    for (std::size_t c = 0; c < n_chunks; ++c) {
        const std::size_t begin = c * chunk_size;
        const std::size_t end = std::min(n, begin + chunk_size);
        // DETLINT-ALLOW(ref-capture-task): `body` outlives every chunk task
        // — this frame blocks on state->done until `remaining` hits zero —
        // and is only invoked, never mutated; chunk ranges are disjoint.
        pool.submit([state, &body, begin, end] {
            {
                // Closes before the decrement below, so every chunk's span
                // is recorded by the time parallel_for returns.
                OBS_SPAN("pool.task");
                try {
                    body(begin, end);
                } catch (...) {
                    const std::lock_guard lock(state->mutex);
                    if (!state->error) state->error = std::current_exception();
                }
            }
            {
                const std::lock_guard lock(state->mutex);
                --state->remaining;
            }
            state->done.notify_one();
        });
    }

    {
        // The join is its own span, so a fan-out parent's self time is its
        // own work, not the time it sat blocked on the pool.
        OBS_SPAN("pool.wait");
        std::unique_lock lock(state->mutex);
        state->done.wait(lock, [&] { return state->remaining == 0; });
    }
    if (state->error) std::rethrow_exception(state->error);
}

} // namespace ssplane
