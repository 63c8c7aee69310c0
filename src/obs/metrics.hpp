// obs::Registry — named counters, gauges and fixed-bucket histograms.
//
// The registry is the one sink every layer publishes into: the solver's
// SolveTelemetry, the simulator's per-channel export, and the harness
// engines' cache/cost/throughput counters all land here so a single
// Registry::snapshot() describes a whole run.  Design constraints:
//
//  * Lock-cheap updates.  Registration (name → metric) takes a mutex once;
//    the returned reference is then updated with relaxed atomics only.
//    Hold the reference across the hot loop, not the name.
//  * Deterministic snapshots.  Metrics live in a std::map keyed on
//    (name, labels), so snapshot order is independent of which thread
//    registered first — the thread-pool determinism test relies on this.
//  * Label-tagged.  The label string is free-form "k=v,k=v" and becomes
//    {k="v",k="v"} in the Prometheus exporter.
//
// Exporters: to_json (machine-readable snapshot), to_csv (spreadsheet),
// to_prometheus (text exposition format, cumulative `le` buckets).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wormnet::obs {

/// Monotonic event count.  add/value are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void inc() { add(1); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram.  Buckets are ascending upper edges: bucket i
/// counts samples x <= edges[i] (and > edges[i-1]); one implicit final
/// bucket counts x > edges.back() (the Prometheus +Inf bucket).  Edges are
/// fixed at registration — observation is a branchless-ish scan plus one
/// relaxed fetch_add, safe from any thread.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> edges);

  void observe(double x);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& edges() const { return edges_; }
  /// i in [0, edges().size()]; the last index is the overflow (+Inf) bucket.
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::vector<double> edges_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // edges_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { Counter, Gauge, Histogram };

/// One metric's state at snapshot time.
struct SnapshotEntry {
  std::string name;
  std::string labels;  // canonical "k=v,k=v" form; empty when untagged
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;  // counter (as double) or gauge reading
  // Histogram payload (empty otherwise).
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;  // edges.size()+1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct Snapshot {
  std::vector<SnapshotEntry> entries;  // sorted by (name, labels)
  const SnapshotEntry* find(std::string_view name,
                            std::string_view labels = {}) const;
};

/// The metric registry.  Thread-safe; see the header comment for the
/// locking contract.  Metric identity is (name, labels) — the same name
/// with different labels is a family of independent series.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-register.  Throws std::logic_error if (name, labels) already
  /// exists with a different kind (or different histogram edges).
  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  HistogramMetric& histogram(std::string_view name, std::vector<double> edges,
                             std::string_view labels = {});

  /// Current reading (counter/gauge value, histogram sum); 0 when absent.
  double value(std::string_view name, std::string_view labels = {}) const;

  Snapshot snapshot() const;
  std::size_t size() const;
  /// Zero every metric in place; registrations (and references) survive.
  void reset();

  /// Process-wide registry: the sink for fire-and-forget counters (e.g.
  /// the collapsed-resident dense-rebuild counter) that have no natural
  /// owner to thread a Registry through.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<HistogramMetric> h;
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  Entry& find_or_insert(std::string_view name, std::string_view labels,
                        MetricKind kind);

  mutable std::mutex mu_;
  std::map<Key, Entry> metrics_;
};

/// Exporters over an immutable snapshot.
std::string to_json(const Snapshot& snap);
std::string to_csv(const Snapshot& snap);
std::string to_prometheus(const Snapshot& snap);

/// Append `s` to `out` as a quoted JSON string: quote, backslash, \n and \t
/// escaped by name, every other control character as \u00XX.  to_json and
/// TraceLog::chrome_json both write through it.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace wormnet::obs
