#include "common/thread_pool.hh"

namespace memcon
{

TaskCancelled::TaskCancelled()
    : std::runtime_error("task abandoned by supervisor")
{
}

void
CancelToken::throwIfCancelled() const
{
    if (cancelRequested())
        throw TaskCancelled();
}

ThreadPool::ThreadPool(unsigned num_threads, std::size_t queue_capacity)
    : capacity(queue_capacity == 0 ? 1 : queue_capacity)
{
    if (num_threads == 0)
        num_threads = 1;
    workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mtx);
        stopping = true;
    }
    notEmpty.notify_all();
    for (std::thread &w : workers)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::unique_lock<std::mutex> lock(mtx);
        notFull.wait(lock, [this] { return queue.size() < capacity; });
        queue.push_back(std::move(packaged));
    }
    notEmpty.notify_one();
    return future;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mtx);
            notEmpty.wait(lock,
                          [this] { return stopping || !queue.empty(); });
            // Graceful shutdown: drain the queue before exiting, so
            // work submitted before destruction always runs.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }
        notFull.notify_one();
        task(); // exceptions land in the future, not here
    }
}

} // namespace memcon
