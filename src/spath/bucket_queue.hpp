// Monotone cyclic bucket priority queue (Dial-style, lazy duplicates)
// for Dijkstra over costs with a known per-relaxation upper bound.
//
// Priorities map to virtual buckets of width `delta` via
// floor(p / delta); entries live in the virtual index's residue mod
// kNumBuckets (a power of two). The queue is *exact*, not approximate:
// pop_min scans the lowest occupied bucket for its true minimum entry,
// so Dijkstra settles every node at its true distance and the dist
// array is bit-identical to any other exact heap (distances are a
// heap-order-independent minimum over per-path left-to-right cost sums;
// see spath/workspace.hpp). Only parent witnesses are tie-break
// dependent: among equal minimum priorities the earliest-inserted entry
// pops first (documented tie-break).
//
// Why the cyclic window is safe: set_cost_bound(c_max) fixes
// delta = c_max / (kNumBuckets - 2), where c_max bounds every
// relaxation increment. Under Dijkstra's monotone pops, every entry in
// the queue (live or a stale duplicate) was pushed with priority
// du + cost <= d_min + c_max for the current minimum d_min, so all
// virtual indices fit in a half-open window of width
// c_max / delta + 1 < kNumBuckets starting at the last pop's virtual
// index. Residues mod kNumBuckets are therefore injective over the
// window: a physical bucket holds entries of exactly one virtual bucket
// at a time, and scanning physically forward (cyclically) from the
// cursor visits virtual buckets in increasing order. No clamping, no
// overflow bucket — the window just wraps as the frontier advances.
//
// Operation costs: push/decrease is an O(1) append plus an occupancy
// bit set. pop_min finds the next occupied bucket with a 16-word bitmap
// scan (no per-empty-bucket walk, so huge distance ranges cost nothing)
// and then compacts/scans one bucket, whose expected size is
// pushes * delta / distance-range — about one entry at the default
// width. Decrease-key is lazy: the superseded entry stays in its old
// (higher) bucket and is dropped when scanned, recognized by priority
// mismatch against the per-key live priority.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.hpp"
#include "util/check.hpp"

namespace tc::spath {

class BucketQueue {
 public:
  static constexpr std::size_t kNumBuckets = 1024;  // power of two

  /// Sizes the key arrays only. The bucket array (kNumBuckets vectors,
  /// ~24 KB) is allocated by the first reset(), i.e. the first kBucket
  /// run, so a workspace that never runs kBucket never pays for it.
  explicit BucketQueue(std::size_t num_keys) { grow_keys(num_keys); }

  /// Declares an upper bound on every relaxation increment (the largest
  /// finite cost the next run can add along one arc) and derives the
  /// bucket width from it; takes effect at the next reset(). Pushing a
  /// priority more than the declared bound above the last pop breaks the
  /// cyclic-window invariant (debug-checked in push_or_decrease).
  /// Non-positive bounds are a programming error.
  void set_cost_bound(graph::Cost max_increment) {
    TC_DCHECK(max_increment > 0.0);
    inv_delta_ = static_cast<double>(kNumBuckets - 2) / max_increment;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  bool contains(graph::NodeId key) const {
    TC_DCHECK(key < stamp_.size());
    return stamp_[key] == epoch_;
  }

  /// Re-keys for `num_keys` keys and empties the queue in O(touched
  /// buckets + leftover entries) — the same reuse hook as IndexedDHeap.
  /// Must precede the first push.
  void reset(std::size_t num_keys) {
    if (buckets_.empty()) buckets_.resize(kNumBuckets);
    for (const std::uint32_t b : used_) buckets_[b].clear();
    used_.clear();
    std::fill(bits_, bits_ + kNumWords, 0ull);
    live_ = 0;
    cursor_ = 0;
    floor_vi_ = 0;
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 0;
    }
    ++epoch_;
    grow_keys(num_keys);
  }

  /// Inserts a new key or lowers the priority of an existing one (the
  /// old entry becomes a lazy duplicate). Raising is a programming error.
  void push_or_decrease(graph::NodeId key, graph::Cost priority) {
    TC_DCHECK(key < stamp_.size());
    if (stamp_[key] == epoch_) {
      TC_DCHECK(priority <= prio_[key]);
    } else {
      stamp_[key] = epoch_;
      ++live_;
    }
    prio_[key] = priority;
    const std::uint64_t vi = virtual_of(priority);
    TC_DCHECK(vi >= floor_vi_);                 // monotone pops
    TC_DCHECK(vi - floor_vi_ < kNumBuckets);    // within the cyclic window
    const std::uint32_t b = static_cast<std::uint32_t>(vi & kBucketMask);
    if (buckets_[b].empty()) used_.push_back(b);
    buckets_[b].push_back({priority, key});
    bits_[b >> 6] |= 1ull << (b & 63u);
  }

  /// Returns and removes the minimum live entry; among equal minima the
  /// earliest-inserted wins. Stale duplicates encountered during the
  /// scan are compacted away (order-preserving).
  std::pair<graph::Cost, graph::NodeId> pop_min() {
    TC_DCHECK(live_ > 0);
    std::uint32_t b = next_occupied(cursor_);
    for (;;) {
      std::vector<Entry>& bucket = buckets_[b];
      std::size_t write = 0;
      std::size_t best = kNone;
      for (std::size_t read = 0; read < bucket.size(); ++read) {
        const Entry e = bucket[read];
        if (stamp_[e.key] != epoch_ || prio_[e.key] != e.priority) {
          continue;  // popped or superseded by a decrease
        }
        if (best == kNone || e.priority < bucket[best].priority) best = write;
        bucket[write++] = e;
      }
      bucket.resize(write);
      if (best == kNone) {  // stale-only; monotone scan advances
        bits_[b >> 6] &= ~(1ull << (b & 63u));
        b = next_occupied((b + 1) & kBucketMask);
        continue;
      }
      cursor_ = b;
      const Entry top = bucket[best];
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(best));
      if (bucket.empty()) bits_[b >> 6] &= ~(1ull << (b & 63u));
      stamp_[top.key] = 0;  // epoch_ >= 1: marks "not live"
      --live_;
      floor_vi_ = virtual_of(top.priority);
      return {top.priority, top.key};
    }
  }

  graph::Cost priority_of(graph::NodeId key) const {
    TC_DCHECK(contains(key));
    return prio_[key];
  }

 private:
  struct Entry {
    graph::Cost priority;
    graph::NodeId key;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kBucketMask = kNumBuckets - 1;
  static constexpr std::size_t kNumWords = kNumBuckets / 64;

  std::uint64_t virtual_of(graph::Cost priority) const {
    const double idx = priority * inv_delta_;
    TC_DCHECK(idx >= 0.0 && idx < 9.2e18);  // uint64-exact for any real run
    return static_cast<std::uint64_t>(idx);
  }

  /// First bucket at or cyclically after `from` whose occupancy bit is
  /// set. Some live entry's bucket is always occupied, so with
  /// live_ > 0 the scan terminates within kNumWords + 1 words.
  std::uint32_t next_occupied(std::uint32_t from) const {
    std::uint32_t w = from >> 6;
    std::uint64_t word = bits_[w] & (~0ull << (from & 63u));
    while (word == 0) {
      w = (w + 1) & (kNumWords - 1);
      word = bits_[w];
    }
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
  }

  void grow_keys(std::size_t num_keys) {
    if (stamp_.size() < num_keys) {
      stamp_.resize(num_keys, 0u);
      prio_.resize(num_keys, 0.0);
    }
  }

  double inv_delta_ = static_cast<double>(kNumBuckets - 2);  // bound 1.0
  std::size_t live_ = 0;
  std::uint32_t cursor_ = 0;    // physical bucket of the last pop
  std::uint64_t floor_vi_ = 0;  // virtual index of the last pop
  std::uint32_t epoch_ = 0;     // reset() makes it >= 1 before any push
  std::uint64_t bits_[kNumWords] = {};  // per-bucket occupancy
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint32_t> used_;
  std::vector<std::uint32_t> stamp_;  // stamp_[k] == epoch_: k is live
  std::vector<graph::Cost> prio_;     // live priority of k (valid when live)
};

}  // namespace tc::spath
