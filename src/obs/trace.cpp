#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/phase_timer.hpp"

namespace oftm::obs {

// --- Calibration (declared in phase_timer.hpp). ------------------------

double ns_per_tick() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const double ratio = [] {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const std::uint64_t c0 = now_ticks();
    // A couple of milliseconds is plenty: TSC rates are in the GHz range,
    // so the quantization error is well under 0.1%.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t c1 = now_ticks();
    const auto t1 = clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    const double ticks = static_cast<double>(c1 - c0);
    return ticks > 0.0 && ns > 0.0 ? ns / ticks : 1.0;
  }();
  return ratio;
#else
  return 1.0;  // now_ticks() already returns nanoseconds
#endif
}

// --- Phase sampling stride (declared in profile.hpp). ------------------

std::uint64_t phase_sample_stride() noexcept {
  static const std::uint64_t stride = [] {
    const char* s = std::getenv("OFTM_OBS_SAMPLE");
    if (s == nullptr || *s == '\0') return std::uint64_t{8};
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s) return std::uint64_t{8};
    return v < 1 ? std::uint64_t{1} : static_cast<std::uint64_t>(v);
  }();
  return stride;
}

// --- Run-owned trace spans. --------------------------------------------

std::string trace_file() {
  const char* path = std::getenv("OFTM_TRACE_FILE");
  return path != nullptr ? path : "";
}

namespace {

// A span in the process's trace document.
struct Kept {
  Span span;
  std::uint32_t tid;      // worker index
  std::uint32_t backend;  // index into the document's backend names
};

void write_document(const std::string& path,
                    const std::vector<std::string>& backends,
                    const std::vector<std::vector<Kept>>& workers) {
  std::vector<const Kept*> events;
  for (const auto& kept : workers) {
    for (const Kept& k : kept) events.push_back(&k);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Kept* a, const Kept* b) {
                     return a->span.start_ticks < b->span.start_ticks;
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const double tick_ns = ns_per_tick();
  const std::uint64_t base =
      events.empty() ? 0 : events.front()->span.start_ticks;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Kept* k : events) {
    const Span& e = k->span;
    const double ts_us =
        static_cast<double>(e.start_ticks - base) * tick_ns / 1000.0;
    const double dur_us = static_cast<double>(e.dur_ticks) * tick_ns / 1000.0;
    const char* name =
        e.committed ? "commit"
                    : abort_reason_name(static_cast<std::size_t>(e.reason));
    std::fprintf(
        f,
        "%s{\"name\":\"%s%s\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":0,\"tid\":%u,\"args\":{\"tx\":%llu,"
        "\"attempt\":%u,\"backend\":\"%s\"}}",
        first ? "" : ",\n", e.committed ? "" : "abort:", name, ts_us, dur_us,
        static_cast<unsigned>(k->tid),
        static_cast<unsigned long long>(e.tx_seq), e.attempt,
        backends[k->backend].c_str());
    first = false;
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

}  // namespace

void append_trace(const std::string& path, const std::string& backend,
                  const std::vector<const SpanRing*>& rings) {
  static std::mutex mu;
  static std::vector<std::string> backends;
  static std::vector<std::vector<Kept>> workers;  // oldest first
  std::lock_guard<std::mutex> lock(mu);
  const auto name = static_cast<std::uint32_t>(
      std::find(backends.begin(), backends.end(), backend) -
      backends.begin());
  if (name == backends.size()) backends.push_back(backend);
  if (workers.size() < rings.size()) workers.resize(rings.size());
  for (std::size_t t = 0; t < rings.size(); ++t) {
    std::vector<Kept>& kept = workers[t];
    rings[t]->for_each([&](const Span& s) {
      kept.push_back({s, static_cast<std::uint32_t>(t), name});
    });
    if (kept.size() > SpanRing::kCapacity) {
      kept.erase(kept.begin(),
                 kept.end() - static_cast<std::ptrdiff_t>(SpanRing::kCapacity));
    }
  }
  write_document(path, backends, workers);
}

}  // namespace oftm::obs
