#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "obs/metrics.hpp"

namespace wormnet::obs {

namespace {

std::atomic<bool> g_tracing{false};

}  // namespace

void TraceLog::complete(std::string name, std::string cat, std::int64_t ts_us,
                        std::int64_t dur_us, std::uint32_t tid,
                        std::uint32_t pid) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{std::move(name), std::move(cat), 'X', ts_us,
                               dur_us, pid, tid});
}

void TraceLog::instant(std::string name, std::string cat, std::int64_t ts_us,
                       std::uint32_t tid, std::uint32_t pid) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      TraceEvent{std::move(name), std::move(cat), 'i', ts_us, 0, pid, tid});
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out += "  {\"name\": ";
    append_json_escaped(out, e.name);
    out += ", \"cat\": ";
    append_json_escaped(out, e.cat);
    if (e.ph == 'X') {
      std::snprintf(buf, sizeof buf,
                    ", \"ph\": \"X\", \"ts\": %lld, \"dur\": %lld, "
                    "\"pid\": %u, \"tid\": %u}",
                    static_cast<long long>(e.ts),
                    static_cast<long long>(e.dur), e.pid, e.tid);
    } else {
      std::snprintf(buf, sizeof buf,
                    ", \"ph\": \"i\", \"s\": \"t\", \"ts\": %lld, "
                    "\"pid\": %u, \"tid\": %u}",
                    static_cast<long long>(e.ts), e.pid, e.tid);
    }
    out += buf;
    out += i + 1 < events_.size() ? ",\n" : "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceLog::write(const std::string& path) const {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

TraceLog& default_trace() {
  static TraceLog log;
  return log;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t trace_now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

std::uint32_t trace_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace wormnet::obs
