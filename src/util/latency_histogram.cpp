#include "util/latency_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace tc::util {

namespace {

constexpr std::uint64_t kMax = LatencyHistogram::kMaxNs;
constexpr std::size_t kSub = LatencyHistogram::kSubBuckets;

/// Rounds a recorded double to in-range integer nanoseconds: NaN and
/// non-positive inputs count as 0, +inf and oversize ones as kMaxNs.
std::uint64_t to_ns(double ns) {
  if (!(ns > 0.0)) return 0;
  if (ns >= static_cast<double>(kMax)) return kMax;
  return std::min(static_cast<std::uint64_t>(ns + 0.5), kMax);
}

/// Block of an in-range value: 0 for [0, 64), else one per power of two.
std::size_t block_of(std::uint64_t v) {
  return v < kSub ? 0 : static_cast<std::size_t>(std::bit_width(v)) - 6;
}

/// Sub-bucket of `v` within its block: the 6 bits below its leading one.
std::size_t sub_of(std::uint64_t v, std::size_t block) {
  return block == 0 ? static_cast<std::size_t>(v)
                    : static_cast<std::size_t>(v >> (block - 1)) - kSub;
}

/// Representative value of a bucket: the midpoint of its integers.
double midpoint(std::size_t block, std::size_t sub) {
  if (block == 0) return static_cast<double>(sub);
  const std::uint64_t width = std::uint64_t{1} << (block - 1);
  const std::uint64_t lo = (kSub + sub) * width;
  return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
}

}  // namespace

void LatencyHistogram::record(double ns) {
  const std::uint64_t v = to_ns(ns);
  const std::size_t b = block_of(v);
  if (blocks_[b] == nullptr) blocks_[b] = std::make_unique<Block>();
  ++(*blocks_[b])[sub_of(v, b)];
  ++count_;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBlocks; ++b) {
    if (other.blocks_[b] == nullptr) continue;
    if (blocks_[b] == nullptr) blocks_[b] = std::make_unique<Block>();
    for (std::size_t s = 0; s < kSubBuckets; ++s) {
      (*blocks_[b])[s] += (*other.blocks_[b])[s];
    }
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::min() const {
  return count_ == 0 ? 0.0 : static_cast<double>(min_);
}

double LatencyHistogram::max() const { return static_cast<double>(max_); }

double LatencyHistogram::percentile(double p) const {
  TC_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  if (count_ == 0) return 0.0;
  // Clamped in double first, so the cast never sees a value past count_.
  const double want = std::ceil(p / 100.0 * static_cast<double>(count_));
  std::uint64_t rank = count_;
  if (want < static_cast<double>(count_)) {
    rank = want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
  }
  if (rank == 1) return static_cast<double>(min_);
  if (rank == count_) return static_cast<double>(max_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    if (blocks_[b] == nullptr) continue;
    for (std::size_t s = 0; s < kSubBuckets; ++s) {
      seen += (*blocks_[b])[s];
      if (seen >= rank) {
        return std::clamp(midpoint(b, s), static_cast<double>(min_),
                          static_cast<double>(max_));
      }
    }
  }
  return static_cast<double>(max_);
}

}  // namespace tc::util
