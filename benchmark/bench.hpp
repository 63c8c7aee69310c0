// benchmark/bench.hpp — shared plumbing of the wormnet end-to-end benchmark.
//
// The benchmark measures the library from OUTSIDE: every layer boundary it
// reports is a call into a public function (QueryEngine::run_batch,
// build_traffic_model_collapsed, SimEngine::run_cells, ...) timed by the
// benchmark itself, plus the library's own WORMNET_SPAN sites harvested from
// obs::default_trace() on traced ops.  Nothing here reaches into src/.
//
// A run is one workload in one process (see main.cpp): set-up repeated on
// fresh objects, a fixed warm-up, then a closed loop of ops — one client
// thread, the next op starting when the previous one returns — until the
// requested seconds have elapsed.  Op inputs come from one seeded stream, so
// two builds run the same op sequence and differ only in how far they get.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace wormnet_bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One span: a benchmark span around a call into a layer (or around the
/// benchmark's own input generation / checks), or a library WORMNET_SPAN
/// harvested from obs::default_trace().  Times are microseconds on the
/// obs::trace_now_us() timebase so both kinds line up.
struct Span {
  std::string name;
  std::string layer;
  std::int64_t ts = 0;
  std::int64_t dur = 0;
  std::uint32_t tid = 0;
  bool library = false;
  int op = -1;      ///< traced op the span belongs to (-1: outside any op)
  int parent = -1;  ///< index of the enclosing span, -1 for an op span
};

/// Collects benchmark spans in memory while active (traced ops only) and
/// merges them with the library's spans at the end of the run.
class Recorder {
 public:
  /// RAII span on the client thread; inert when the recorder is inactive.
  /// A quiet span pauses the library's tracing for its scope, so library
  /// calls made by the benchmark's own checks never count as workload work.
  class Scope {
   public:
    Scope(Recorder* rec, const char* name, const char* layer, bool quiet);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Recorder* rec_;
    const char* name_;
    const char* layer_;
    bool quiet_;
    std::int64_t t0_ = 0;
  };

  Scope span(const char* name, const char* layer, bool quiet = false) {
    return Scope(active_ ? this : nullptr, name, layer, quiet);
  }
  /// Turn recording — and the library's tracing switch — on or off.
  void set_active(bool on);

  /// All spans of the run: the benchmark's own plus the library's, each
  /// attributed to the op whose interval contains it and to its enclosing
  /// span.  Call once, after the loop.
  std::vector<Span> harvest();

 private:
  bool active_ = false;
  std::vector<Span> spans_;
};

/// Per-layer summary of a traced run, computed from the harvested spans of
/// traced ops (set-up runs untraced; the workloads time its steps).
struct Analysis {
  struct Stat {
    long count = 0;
    double busy_us = 0.0;   ///< Σ durations
    double self_us = 0.0;   ///< Σ (duration − union of child intervals)
    double child_us = 0.0;  ///< Σ direct-children durations
    /// Op wall time during which this is the deepest active layer; the
    /// layers' exclusive times plus the unattributed time add up to the
    /// traced ops' wall time.
    double excl_us = 0.0;
  };
  std::vector<Span> spans;
  std::map<std::string, Stat> by_name;   ///< keyed by span name
  std::map<std::string, Stat> by_layer;  ///< keyed by layer
  long traced_ops = 0;
  double op_wall_us = 0.0;       ///< Σ traced op (loop iteration) durations
  double unattributed_us = 0.0;  ///< op wall time no span covers

  static Analysis of(std::vector<Span> spans);
  const Stat& stat(const std::string& name) const;
  /// Chrome trace-event JSON of the first `max_ops` traced ops.
  bool write_chrome_trace(const std::string& path, int max_ops) const;
  /// Per-layer table: spans, busy, self and exclusive share of op wall.
  std::string layer_table() const;
};

/// Declared metric value: what the run prints and run.py checks.
struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

/// Set a metric's value and sample count (its unit comes from the
/// declaration list in main.cpp).
inline void put(MetricMap& m, const std::string& name, double value, long samples) {
  Metric& metric = m[name];
  metric.value = value;
  metric.samples = samples;
}

/// The closed-loop run context handed to a workload.
class Run {
 public:
  Run(Recorder& rec, std::uint64_t seed, unsigned threads)
      : rec_(rec), seed_(seed), threads_(threads) {}

  std::uint64_t seed() const { return seed_; }
  unsigned threads() const { return threads_; }

  /// Time one call into the library.  The time adds to the current op's
  /// latency (an op may make several calls) and, on traced ops, becomes a
  /// span of `layer`.
  template <class F>
  decltype(auto) call(const char* name, const char* layer, F&& f) {
    Recorder::Scope s = rec_.span(name, layer);
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      last_call_seconds_ = seconds_since(t0);
      op_seconds_ += last_call_seconds_;
    } else {
      auto r = f();
      last_call_seconds_ = seconds_since(t0);
      op_seconds_ += last_call_seconds_;
      return r;
    }
  }
  /// Duration of the most recent call().
  double last_call_seconds() const { return last_call_seconds_; }
  /// Untimed benchmark-side span around input generation.
  Recorder::Scope gen() { return rec_.span("gen", "bench"); }
  /// Untimed benchmark-side span around output checks (library tracing
  /// paused, see Recorder::Scope).
  Recorder::Scope check() { return rec_.span("check", "bench", true); }

  /// Work items an op completed (queries, scenarios, designs, cycles).
  void add_items(double n) { items_ += n; }
  /// Operations attempted / failed (queries, scenarios, designs, (cell,
  /// load) pairs, one-off checks); `why` names the first few failures.
  void attempted(long n) { attempted_ += n; }
  void fail(long n, const std::string& why);

  // Loop bookkeeping (main.cpp).
  void begin_op() { op_seconds_ = 0.0; }
  double op_seconds() const { return op_seconds_; }
  double items() const { return items_; }
  long attempted_count() const { return attempted_; }
  long failed_count() const { return failed_; }

 private:
  Recorder& rec_;
  std::uint64_t seed_;
  unsigned threads_;
  double op_seconds_ = 0.0;
  double last_call_seconds_ = 0.0;
  double items_ = 0.0;
  long attempted_ = 0;
  long failed_ = 0;
};

/// One benchmark workload.  An instance holds everything one fresh set-up
/// constructs; main.cpp builds a new instance for each timed set-up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One fresh construction of what the first op needs (timed: setup_s).
  virtual void setup(Run& run) = 0;
  /// Untimed check infrastructure built after the last set-up.
  virtual void prepare_checks(Run&) {}
  /// Ops run (untimed, unrecorded) before measurement starts.
  virtual int warmup_ops() const = 0;
  /// One closed-loop op: generate inputs, call the library through
  /// run.call(), then check the outputs inside run.span("check").
  virtual void op(Run& run, bool warmup) = 0;
  /// Checks that run once after the loop.
  virtual void finish(Run&) {}
  /// Workload-specific per-layer metrics (traced runs).
  virtual void layer_metrics(const Analysis&, MetricMap&) const {}
};

/// The workload factories (nullptr for a name they do not own).
std::unique_ptr<Workload> make_query_workload(const std::string& name);
std::unique_ptr<Workload> make_fabric_workload(const std::string& name);

// --- Checks shared by the workloads. -----------------------------------------

/// |a − b| / max(|b|, tiny), with equal non-finite values agreeing.
double rel_diff(double a, double b);
/// Bitwise equality of two doubles (NaN payloads included).
bool same_bits(double a, double b);

/// Seeded stream for one purpose of one run: the same (seed, stream) always
/// yields the same inputs.
inline wormnet::util::Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return wormnet::util::Rng::stream(seed, purpose);
}
inline double uniform_in(wormnet::util::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform();
}

}  // namespace wormnet_bench
