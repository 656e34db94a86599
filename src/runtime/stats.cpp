#include "runtime/stats.hpp"

#include <algorithm>
#include <cstdio>


namespace oftm::runtime {

std::uint64_t Log2Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      // The top bucket is clamped (it absorbs everything >= 2^63, whose
      // nominal upper bound 2^64 - 1 would overstate wildly), so answer
      // with the exact observed maximum there instead.
      if (i == 0) return 0;
      if (i == kBuckets - 1) return max_;
      return (std::uint64_t{1} << i) - 1;
    }
  }
  return max_;
}

std::string Log2Histogram::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50<=%llu p99<=%llu max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(quantile(0.50)),
                static_cast<unsigned long long>(quantile(0.99)),
                static_cast<unsigned long long>(max_));
  return buf;
}

std::string TxStats::to_string() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "commits=%llu aborts=%llu (forced=%llu, ratio=%.3f, forced_ratio=%.3f)"
      " reads=%llu writes=%llu backoffs=%llu kills=%llu",
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(aborts),
      static_cast<unsigned long long>(forced_aborts), abort_ratio(),
      forced_abort_ratio(), static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(writes),
      static_cast<unsigned long long>(cm_backoffs),
      static_cast<unsigned long long>(victim_kills));
  std::string out = buf;
  if (abort_reason_total() != 0) {
    out += " reasons={";
    bool first = true;
    for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
      if (abort_reason[i] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s%s=%llu", first ? "" : " ",
                    obs::abort_reason_name(i),
                    static_cast<unsigned long long>(abort_reason[i]));
      out += buf;
      first = false;
    }
    out += "}";
  }
  return out;
}

void TxStats::merge_hot_vars(const std::vector<obs::HotVar>& other) {
  for (const obs::HotVar& h : other) {
    bool found = false;
    for (obs::HotVar& mine : hot_vars) {
      if (mine.key == h.key) {
        mine.hits += h.hits;
        found = true;
        break;
      }
    }
    if (!found) hot_vars.push_back(h);
  }
  std::sort(hot_vars.begin(), hot_vars.end(),
            [](const obs::HotVar& a, const obs::HotVar& b) {
              return a.hits != b.hits ? a.hits > b.hits : a.key < b.key;
            });
  if (hot_vars.size() > 8) hot_vars.resize(8);
}

}  // namespace oftm::runtime
