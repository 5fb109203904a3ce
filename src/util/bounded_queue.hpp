// Bounded blocking queue for the fleet's shard mailboxes.
//
// Many producers (client threads calling Fleet::submit), one consumer
// (the shard's worker thread) — though nothing here assumes single-
// consumer; it is an MPMC queue used MPSC. Admission control needs two
// properties a plain ThreadPool queue does not give:
//
//   * a hard capacity: try_push fails instead of growing, so a slow
//     shard pushes back on its clients immediately (load shedding
//     decisions happen at the producer, with the current depth in hand);
//   * a closeable pop: close() wakes the consumer so a Fleet can drain
//     and join its workers deterministically at shutdown.
//
// All waiting uses the annotated util::CondVar, so the lock discipline
// is enforced by the Clang Thread Safety build like every other queue in
// the tree.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tc::util {

/// Bounded multi-producer queue with a closeable blocking pop.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Current queue depth. Advisory under concurrency (the value may be
  /// stale by the time the caller acts on it), which is exactly what
  /// watermark checks need. (Named depth, not size: the project analyzer
  /// resolves calls by name, and `size` would alias the container calls
  /// on the lock-free pricing path.)
  std::size_t depth() const TC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

  /// Non-blocking push. Returns false when the queue is full or closed —
  /// the caller sheds the item instead of waiting. Takes an rvalue
  /// reference, not a value: `item` is moved from only when the push
  /// succeeds, so a shedding caller still owns the rejected item (it
  /// must, to answer the client it carries).
  [[nodiscard]] bool try_push(T&& item) TC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and*
  /// drained; nullopt means "closed, nothing left" (consumer exits).
  [[nodiscard]] std::optional<T> pop() TC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (items_.empty() && !closed_) cv_.wait(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Batch pop: drains up to `max_items` queued items into `out` under
  /// ONE lock acquisition — the fleet's drain loop grabs a whole batch
  /// of staged requests this way instead of paying a lock round-trip per
  /// item. Never blocks; returns the number of items appended (0
  /// when empty, whether or not the queue is closed — pair with
  /// closed() for consumer-exit logic). Items keep FIFO order in `out`.
  std::size_t try_pop_n(std::vector<T>& out, std::size_t max_items)
      TC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::size_t moved = 0;
    while (moved < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++moved;
    }
    return moved;
  }

  /// Selective drain: removes every queued item matching `pred` into
  /// `out` (FIFO order preserved) under one lock acquisition; items that
  /// do not match keep their relative order in the queue. The fleet's
  /// steal path uses this to extract a migrating tenant's staged
  /// requests wholesale. Works on a closed queue (it is part of drain).
  template <typename Pred>
  std::size_t extract_if(Pred&& pred, std::vector<T>& out)
      TC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::size_t moved = 0;
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(*it)) {
        out.push_back(std::move(*it));
        it = items_.erase(it);
        ++moved;
      } else {
        ++it;
      }
    }
    return moved;
  }

  /// Rejects all future pushes and wakes blocked consumers. Items already
  /// queued are still handed out by pop() (drain-then-exit semantics).
  void close() TC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const TC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  /// Leaf lock: held only for deque operations, never across callbacks.
  mutable util::Mutex mutex_;
  CondVar cv_;
  std::deque<T> items_ TC_GUARDED_BY(mutex_);
  bool closed_ TC_GUARDED_BY(mutex_) = false;
};

}  // namespace tc::util
