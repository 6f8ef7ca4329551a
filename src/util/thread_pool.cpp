#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/error.hpp"

namespace lgg {

namespace {

/// Retire one queued task of a parallel_for call.  The decrement and the
/// notify both happen under done_mutex: the waiting caller can only see
/// zero after this worker has released the lock, so the caller's frame
/// (remaining, done_mutex, done_cv) is never used after it returns.
void finish_task(std::size_t& remaining, std::mutex& done_mutex,
                 std::condition_variable& done_cv) {
  const std::lock_guard lock(done_mutex);
  if (--remaining == 0) done_cv.notify_all();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  // Chunk count: never more than one per executor (workers + the calling
  // thread), never so many that a chunk drops below `grain` elements.
  // chunks <= n / grain <= n guarantees every chunk is non-empty.
  const std::size_t max_chunks = std::max<std::size_t>(1, n / grain);
  const std::size_t chunks = std::min(workers_.size() + 1, max_chunks);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }

  // Completion state lives on this frame.  Workers decrement `remaining`
  // and notify while holding done_mutex, so once the caller sees zero no
  // worker touches this frame again (see finish_task).
  std::size_t remaining = chunks - 1;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  // Chunk 0 runs inline on the calling thread below; chunks 1..C-1 go to
  // the queue first so workers start while the caller computes its share.
  std::size_t begin = base + (0 < extra ? 1 : 0);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t end = begin + len;
    auto task = [&, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      finish_task(remaining, done_mutex, done_cv);
    };
    {
      const std::lock_guard lock(mutex_);
      tasks_.emplace(std::move(task));
    }
    begin = end;
  }
  cv_.notify_all();

  try {
    fn(0, base + (0 < extra ? 1 : 0));
  } catch (...) {
    const std::lock_guard lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  }

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for_dynamic(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain, std::size_t chunks_per_worker) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (chunks_per_worker == 0) chunks_per_worker = 1;
  const std::size_t executors = workers_.size() + 1;
  const std::size_t max_chunks = std::max<std::size_t>(1, n / grain);
  const std::size_t chunks = std::min(executors * chunks_per_worker, max_chunks);
  if (chunks <= 1 || workers_.empty()) {
    fn(0, n);
    return;
  }

  // Balanced fixed boundaries: chunk c covers [c*base + min(c, extra), +len).
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto run_chunks = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      const std::size_t begin = c * base + std::min(c, extra);
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      try {
        fn(begin, end);
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  // One claiming task per worker (never more tasks than chunks); the
  // calling thread claims chunks too, so every chunk is joined before the
  // scope exits even if the queue is busy.
  const std::size_t tasks = std::min(workers_.size(), chunks - 1);
  std::size_t remaining = tasks;  // guarded by done_mutex, as in parallel_for
  std::mutex done_mutex;
  std::condition_variable done_cv;
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t t = 0; t < tasks; ++t) {
      tasks_.emplace([&] {
        run_chunks();
        finish_task(remaining, done_mutex, done_cv);
      });
    }
  }
  cv_.notify_all();

  run_chunks();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lgg
