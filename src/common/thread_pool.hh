/**
 * @file
 * A fixed-size worker pool with a bounded task queue, plus the
 * cooperative cancellation primitive the campaign supervisor uses.
 *
 * The experiment runner (bench/runner) executes independent sweep
 * points on this pool; determinism is preserved because the pool
 * never reorders *results* - callers hold one future per task and
 * reduce in submission order. The queue is bounded so a producer
 * enumerating a huge sweep cannot outrun the workers by an unbounded
 * amount of memory; submit() blocks when the queue is full.
 *
 * Exceptions thrown by a task are captured in its future and rethrow
 * at get(), never on the worker thread. Destruction is graceful: all
 * tasks already submitted (queued or running) complete before the
 * workers join.
 *
 * Cancellation is cooperative: a CancelToken is a shared flag a
 * supervisor raises and a long-running task polls (throwIfCancelled()
 * at loop boundaries). The pool never kills a worker - a task that
 * ignores its token keeps its worker until it returns; one that
 * honors it unwinds with TaskCancelled, which the campaign layer
 * treats as "abandon and requeue" rather than a task failure.
 */

#ifndef MEMCON_COMMON_THREAD_POOL_HH
#define MEMCON_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace memcon
{

/**
 * Thrown by CancelToken::throwIfCancelled() when a supervisor has
 * asked the task to abandon its attempt. Distinct from task failure:
 * the campaign layer catches it and requeues the task.
 */
class TaskCancelled : public std::runtime_error
{
  public:
    TaskCancelled();
};

/**
 * A copyable handle over a shared cancellation flag. One token is
 * issued per task attempt; the watchdog raises it, the task polls it.
 */
class CancelToken
{
  public:
    CancelToken() : flag(std::make_shared<std::atomic<bool>>(false)) {}

    /** Ask the task holding this token to abandon its attempt. */
    void requestCancel() { flag->store(true, std::memory_order_release); }

    bool cancelRequested() const
    {
        return flag->load(std::memory_order_acquire);
    }

    /** Poll point for cooperative tasks; throws TaskCancelled. */
    void throwIfCancelled() const;

  private:
    std::shared_ptr<std::atomic<bool>> flag;
};

class ThreadPool
{
  public:
    /**
     * @param num_threads     worker count; 0 is clamped to 1
     * @param queue_capacity  queued (not yet running) task bound;
     *                        submit() blocks while the queue is full
     */
    explicit ThreadPool(unsigned num_threads,
                        std::size_t queue_capacity = 256);

    /** Completes every submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task; blocks while the queue is at capacity. The
     * returned future yields the task's completion or rethrows the
     * exception it exited with.
     */
    std::future<void> submit(std::function<void()> task);

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    std::size_t queueCapacity() const { return capacity; }

  private:
    void workerLoop();

    std::size_t capacity;
    // memcon:guarded_by(mtx)
    std::deque<std::packaged_task<void()>> queue;
    mutable std::mutex mtx;
    std::condition_variable notEmpty; //!< queue gained work / stopping
    std::condition_variable notFull;  //!< queue lost work
    bool stopping = false; // memcon:guarded_by(mtx)
    std::vector<std::thread> workers;
};

} // namespace memcon

#endif // MEMCON_COMMON_THREAD_POOL_HH
