// Log-linear latency histogram: 128 linear sub-buckets per power of two.
//
// Values below 256 land in exact unit buckets; above that, a bucket of
// value v is 2^(msb(v) - 7) wide, at most 1/128 of its lower edge, and
// quantile() reports the bucket midpoint, so every quantile is within
// 0.4% of the sorted-sample answer. runtime::Log2Histogram (one bucket
// per power of two) cannot resolve a 10% regression bound at the tail.
//
// Fixed size (4,480 counters, 35 KiB) and allocated once, before the
// measured window: recording never allocates, so a long run does not grow
// the process the benchmark also reports the peak memory of.
#pragma once

#include <cstdint>
#include <vector>

namespace oftm::bench {

class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Largest recordable exponent: 2^40 TSC ticks is several minutes.
  static constexpr int kMaxMsb = 40;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxMsb - kSubBits + 2) * kSub;

  LogLinearHistogram() : counts_(kBuckets, 0) {}

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    int msb = 63 - __builtin_clzll(v);
    if (msb > kMaxMsb) {
      msb = kMaxMsb;
      v = (std::uint64_t{2} << kMaxMsb) - 1;
    }
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }

  // Midpoint of bucket b's value range [lo, lo + width).
  static double bucket_value(std::size_t b) noexcept {
    if (b < 2 * kSub) return static_cast<double>(b);
    const int shift = static_cast<int>(b / kSub) - 1;
    const std::uint64_t lo = (kSub + b % kSub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

  void record(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++count_;
  }

  LogLinearHistogram& operator+=(const LogLinearHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    return *this;
  }

  std::uint64_t count() const noexcept { return count_; }

  // 1-based rank of the q-quantile among n samples: ceil(q * n), at least 1.
  static std::uint64_t nearest_rank(double q, std::uint64_t n) noexcept {
    const double exact = q * static_cast<double>(n);
    auto rank = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;
    return rank == 0 ? 1 : rank;
  }

  // Nearest-rank quantile, 0 < q <= 1; 0 when empty.
  double quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    const std::uint64_t rank = nearest_rank(q, count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) return bucket_value(b);
    }
    return bucket_value(kBuckets - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

}  // namespace oftm::bench
