// Bounded latency book: a fixed-layout log-linear histogram in the style
// of HdrHistogram (http://hdrhistogram.org).
//
// Values are integer nanoseconds, rounded from the double a caller
// records. [0, 128) is counted exactly, one bucket per nanosecond; from
// there each power of two [2^e, 2^(e+1)) splits into 64 linear
// sub-buckets of width 2^(e-6). A bucket therefore spans at most 1/64 of
// its smallest value, and its midpoint is within 0.8% of every sample in
// it. The layout covers 0 to 2^40 ns (about 18 minutes); larger values
// and +inf count in the top bucket, NaN and negative inputs count as 0.
//
// Counts are 64-bit and live in blocks of 64, one block per power of two
// (plus one for [0, 64)). A block is allocated the first time a value
// lands in it, so a book holds only the ranges its samples reach, and its
// size never grows with its count: recording is O(1) and allocation-free
// once its range is touched. count, min and max are exact.
//
// Not thread-safe; the serving layer guards each book with a leaf mutex.
// percentile() is const and sorts nothing, so a reader holding that
// mutex never mutates the book. util::Percentiles stays the exact (but
// sample-storing) tool for the figure series.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace tc::util {

class LatencyHistogram {
 public:
  /// Largest representable value; larger inputs clamp to it.
  static constexpr std::uint64_t kMaxNs = (std::uint64_t{1} << 40) - 1;
  /// Linear sub-buckets per power of two (and per block).
  static constexpr std::size_t kSubBuckets = 64;
  /// Block 0 holds [0, 64); block b >= 1 holds [2^(b+5), 2^(b+6)).
  static constexpr std::size_t kBlocks = 35;

  /// Records one value in nanoseconds (rounded to the nearest integer).
  void record(double ns);
  /// Adds every sample of `other` to this book.
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Exact smallest / largest recorded value in ns; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Nearest-rank percentile in ns, p in [0, 100]: the value of the
  /// sample of rank max(1, ceil(p / 100 * count())), reported as its
  /// bucket's midpoint clamped to [min(), max()] (exact at p = 0 and
  /// p = 100, within 0.8% elsewhere). 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  using Block = std::array<std::uint64_t, kSubBuckets>;

  std::uint64_t count_ = 0;
  std::uint64_t min_ = kMaxNs;
  std::uint64_t max_ = 0;
  std::array<std::unique_ptr<Block>, kBlocks> blocks_;
};

}  // namespace tc::util
