#include "util/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wormrt::util {

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  /// Signalled when a bounded queue frees a slot (blocked submitters).
  std::condition_variable space_cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  std::size_t max_queue = 0;  // 0 = unbounded
  bool stopping = false;
  std::atomic<std::uint64_t> tasks_submitted{0};
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> busy_micros{0};

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) {
          return;
        }
        task = std::move(queue.front());
        queue.pop_front();
        if (max_queue > 0) {
          space_cv.notify_one();
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      task();
      const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0);
      busy_micros.fetch_add(static_cast<std::uint64_t>(dt.count()),
                            std::memory_order_relaxed);
      tasks_executed.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

ThreadPool::ThreadPool(unsigned workers, std::size_t max_queue)
    : impl_(new Impl) {
  impl_->max_queue = max_queue;
  impl_->workers.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->space_cv.notify_all();
  for (auto& w : impl_->workers) {
    w.join();
  }
  delete impl_;
}

unsigned ThreadPool::size() const {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    if (impl_->max_queue > 0) {
      // Backpressure: hold the producer until a slot frees.  Shutdown
      // admits unconditionally so no submission is ever dropped.
      impl_->space_cv.wait(lk, [&] {
        return impl_->stopping || impl_->queue.size() < impl_->max_queue;
      });
    }
    impl_->queue.push_back(std::move(task));
  }
  impl_->tasks_submitted.fetch_add(1, std::memory_order_relaxed);
  impl_->cv.notify_one();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_submitted = impl_->tasks_submitted.load(std::memory_order_relaxed);
  s.tasks_executed = impl_->tasks_executed.load(std::memory_order_relaxed);
  s.busy_micros = impl_->busy_micros.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    s.queue_depth = impl_->queue.size();
  }
  s.workers = static_cast<unsigned>(impl_->workers.size());
  return s;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

unsigned ThreadPool::resolve_threads(int requested) {
  if (requested > 0) {
    return static_cast<unsigned>(requested);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

/// Shared state of one parallel_for call.  Kept alive by shared_ptr until
/// the last helper task has observed the exhausted index counter (a
/// helper may be scheduled long after the loop completed).
struct LoopState {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<int> in_flight{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      // Count ourselves in flight BEFORE claiming an index (both seq_cst):
      // otherwise the caller could see the counter exhausted and nobody
      // in flight between our claim and our increment, return, and leave
      // us running `body` on its destroyed stack.
      in_flight.fetch_add(1);
      const std::size_t i = next.fetch_add(1);
      if (i < count) {
        try {
          (*body)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (!error) {
              error = std::current_exception();
            }
          }
          next.store(count);  // cancel the rest
        }
      }
      if (in_flight.fetch_sub(1) == 1 && next.load() >= count) {
        std::lock_guard<std::mutex> lk(mu);
        cv.notify_all();
      }
      if (i >= count) {
        break;
      }
    }
  }

  bool finished() { return next.load() >= count && in_flight.load() == 0; }
};

}  // namespace

void parallel_for(std::size_t count, int num_threads,
                  const std::function<void(std::size_t)>& body) {
  const unsigned threads = ThreadPool::resolve_threads(num_threads);
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->count = count;
  state->body = &body;

  ThreadPool& pool = ThreadPool::shared();
  const std::size_t want =
      std::min<std::size_t>(threads, count) - 1;  // caller is a participant
  const std::size_t helpers = std::min<std::size_t>(want, pool.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { state->drain(); });
  }

  state->drain();
  // Moved out under the lock: a late helper may still hold the last
  // reference to `state`, and the exception must not be released (and
  // destroyed) on that helper's thread while the caller reads it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(state->mu);
    state->cv.wait(lk, [&] { return state->finished(); });
    error = std::move(state->error);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace wormrt::util
