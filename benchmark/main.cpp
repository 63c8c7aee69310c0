// wormnet_bench — one workload of the end-to-end benchmark in one process.
//
//   wormnet_bench --workload=NAME --seed=N --seconds=S --trace=0|1 [--out=DIR]
//
// Untraced (--trace=0): set-up is constructed five times on fresh objects
// (setup_s is the median), a fixed warm-up runs, then ops run in a closed
// loop until S seconds have elapsed; the end-to-end metrics are printed.
// Traced (--trace=1): one set-up, the same warm-up and loop, but every
// second op is traced — benchmark spans around each library call plus the
// library's own WORMNET_SPANs — and the per-layer metrics are printed along
// with the per-layer table; DIR/NAME.trace.json gets the Chrome trace.
//
// The last stdout line is one JSON object: workload, correct, attempted,
// failed, metrics {name: {value, unit, samples}}.  benchmark/run.py builds
// this binary, runs it, and checks the metric names against BENCHMARK.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace wormnet_bench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run prints.
const Declared kEndToEnd[] = {
    {"setup_s", "s"},           {"op_p50_ms", "ms"}, {"op_p99_ms", "ms"},
    {"throughput", "1/s"},      {"peak_rss_mb", "MB"},
};

// The per-layer metrics every traced run prints (0 where a layer is idle on
// the workload).
const Declared kPerLayer[] = {
    {"bench.traced_ops", "count"},
    {"bench.unattributed_share", "ratio"},
    {"bench.check_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"setup.topo_ms", "ms"},
    {"setup.model_ms", "ms"},
    {"setup.baseline_ms", "ms"},
    {"query.batch_ms", "ms"},
    {"query.self_ms", "ms"},
    {"query.worker_busy_share", "ratio"},
    {"query.memoized_share", "ratio"},
    {"query.reevaluate_share", "ratio"},
    {"query.retune_share", "ratio"},
    {"query.rebuild_share", "ratio"},
    {"query.variants_per_batch", "count"},
    {"sweep.cache_hit_ratio", "ratio"},
    {"sweep.evaluations_per_op", "count"},
    {"sweep.saturation_ms", "ms"},
    {"sweep.curve_ms", "ms"},
    {"core.solve.calls_per_op", "count"},
    {"core.solve.busy_ms_per_op", "ms"},
    {"core.solve.mean_us", "us"},
    {"core.retune_traffic.calls_per_op", "count"},
    {"core.retune_traffic.busy_ms_per_op", "ms"},
    {"core.retune_traffic.mean_ms", "ms"},
    {"core.retune.passes_per_variant", "count"},
    {"core.retune.changed_pairs_per_variant", "count"},
    {"core.retune_faults.calls_per_op", "count"},
    {"core.retune_faults.busy_ms_per_op", "ms"},
    {"core.retune_faults.mean_ms", "ms"},
    {"core.retune_faults.passes_per_scenario", "count"},
    {"core.rebuild_cold.calls_per_op", "count"},
    {"core.build.calls_per_op", "count"},
    {"core.build.busy_ms_per_op", "ms"},
    {"core.build_collapsed_ms.L7", "ms"},
    {"core.build_collapsed_ms.L8", "ms"},
    {"core.build_collapsed_ms.L9", "ms"},
    {"core.collapsed_classes.L7", "count"},
    {"core.collapsed_classes.L8", "count"},
    {"core.collapsed_classes.L9", "count"},
    {"topo.build_ms.L7", "ms"},
    {"topo.build_ms.L8", "ms"},
    {"topo.build_ms.L9", "ms"},
    {"sim.campaign_ms", "ms"},
    {"sim.model_side_ms", "ms"},
    {"sim.cycles_per_campaign", "count"},
    {"sim.delivered_flits_per_campaign", "count"},
    {"sim.host_ns_per_flit", "ns"},
    {"sim.replications_per_campaign", "count"},
    {"sim.networks_built_per_campaign", "count"},
    {"sim.model_err_pct", "%"},
    {"sim.err_pct_max", "%"},
    {"sim.err_pct_bft5", "%"},
};

const char* const kWorkloads[] = {"whatif_tune", "whatif_retune",
                                  "availability_n1", "fabric_scale",
                                  "sim_crosscheck"};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (std::unique_ptr<Workload> w = make_query_workload(name)) return w;
  return make_fabric_workload(name);
}

#ifndef WORMNET_BENCH_BUILD_TYPE
#define WORMNET_BENCH_BUILD_TYPE "unknown"
#endif
const std::string kBuildType = WORMNET_BENCH_BUILD_TYPE;
#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#else
const std::string kCompiler = "unknown";
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "wormnet_bench: " << problem
            << "\nusage: wormnet_bench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--out=DIR]\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      usage("bad argument '" + arg + "'");
    const std::string key = arg.substr(2, eq - 2), val = arg.substr(eq + 1);
    if (key == "workload") a.workload = val;
    else if (key == "seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "trace") a.trace = val == "1";
    else if (key == "out") a.out = val;
    else usage("unknown flag --" + key);
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The per-layer metrics derived from span statistics alone (the rest come
/// from the workloads' own counters).
void span_metrics(const Analysis& an, unsigned threads, MetricMap& m) {
  const double ops = std::max<double>(1.0, static_cast<double>(an.traced_ops));
  put(m, "bench.traced_ops", static_cast<double>(an.traced_ops), an.traced_ops);
  put(m, "bench.unattributed_share",
      an.op_wall_us > 0.0 ? an.unattributed_us / an.op_wall_us : 0.0,
      an.traced_ops);
  put(m, "bench.check_ms", an.stat("check").busy_us / 1e3 / ops, an.traced_ops);

  const Analysis::Stat& qb = an.stat("query_batch");
  if (qb.count > 0) {
    const double n = static_cast<double>(qb.count);
    put(m, "query.batch_ms", qb.busy_us / 1e3 / n, qb.count);
    put(m, "query.self_ms", qb.self_us / 1e3 / n, qb.count);
    put(m, "query.worker_busy_share",
        qb.child_us / (qb.busy_us * static_cast<double>(threads)), qb.count);
  }
  // Per-op counts and busy time of the library's own spans.
  const struct {
    const char* span;
    const char* prefix;
    const char* mean;   // per-call mean metric, or nullptr
    double us_to_mean;  // µs → the mean metric's unit
  } per_span[] = {
      {"solve_general_model", "core.solve", "mean_us", 1.0},
      {"retune_traffic", "core.retune_traffic", "mean_ms", 1e-3},
      {"retune_faults", "core.retune_faults", "mean_ms", 1e-3},
      {"build_traffic_model", "core.build", nullptr, 0.0},
  };
  for (const auto& p : per_span) {
    const Analysis::Stat& st = an.stat(p.span);
    const std::string pre = p.prefix;
    put(m, pre + ".calls_per_op", static_cast<double>(st.count) / ops,
        an.traced_ops);
    put(m, pre + ".busy_ms_per_op", st.busy_us / 1e3 / ops,
        an.traced_ops);
    if (p.mean != nullptr && st.count > 0)
      put(m, pre + "." + p.mean,
          st.busy_us * p.us_to_mean / static_cast<double>(st.count), st.count);
  }
  put(m, "core.rebuild_cold.calls_per_op",
      static_cast<double>(an.stat("resident_rebuild_cold").count) / ops,
      an.traced_ops);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int run_main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads))
    usage("unknown workload '" + args.workload + "'");
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << " threads " << threads << std::endl;

  Recorder rec;
  Run run(rec, args.seed, threads);

  // Set-up: fresh objects each time; the previous instance is destroyed
  // before the clock starts.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < (args.trace ? 1 : 5); ++rep) {
    w.reset();
    w = make_workload(args.workload);
    const Clock::time_point t0 = Clock::now();
    w->setup(run);
    setup_s.push_back(seconds_since(t0));
  }
  w->prepare_checks(run);
  for (int i = 0; i < w->warmup_ops(); ++i) {
    run.begin_op();
    w->op(run, /*warmup=*/true);
  }

  // The closed loop: one client, next op when the previous returns.
  std::vector<double> latency, traced_latency, untraced_latency;
  const double items_before = run.items();
  const Clock::time_point start = Clock::now();
  for (long k = 0; k == 0 || seconds_since(start) < args.seconds; ++k) {
    const bool traced = args.trace && k % 2 == 1;
    rec.set_active(traced);
    run.begin_op();
    {
      Recorder::Scope op_span = rec.span("op", "bench");
      w->op(run, /*warmup=*/false);
    }
    rec.set_active(false);
    latency.push_back(run.op_seconds());
    (traced ? traced_latency : untraced_latency).push_back(run.op_seconds());
  }
  const double loop_s = seconds_since(start);
  const double items = run.items() - items_before;
  w->finish(run);

  MetricMap metrics;
  const long n_ops = static_cast<long>(latency.size());
  if (!args.trace) {
    for (const Declared& d : kEndToEnd) metrics[d.name].unit = d.unit;
    double busy = 0.0;
    for (double s : latency) busy += s;
    put(metrics, "setup_s", percentile(setup_s, 0.5),
        static_cast<long>(setup_s.size()));
    put(metrics, "op_p50_ms", 1e3 * percentile(latency, 0.5), n_ops);
    put(metrics, "op_p99_ms", 1e3 * percentile(latency, 0.99), n_ops);
    put(metrics, "throughput", busy > 0.0 ? items / busy : 0.0, n_ops);
    put(metrics, "peak_rss_mb", peak_rss_mb(), 1);
  } else {
    for (const Declared& d : kPerLayer) metrics[d.name].unit = d.unit;
    const Analysis an = Analysis::of(rec.harvest());
    span_metrics(an, threads, metrics);
    const double t_off = percentile(untraced_latency, 0.5);
    const double t_on = percentile(traced_latency, 0.5);
    put(metrics, "bench.trace_overhead_pct",
        t_off > 0.0 ? 100.0 * (t_on / t_off - 1.0) : 0.0,
        static_cast<long>(traced_latency.size()));
    w->layer_metrics(an, metrics);
    std::cout << "per-layer table (" << args.workload << ", " << an.traced_ops
              << " traced ops):\n"
              << an.layer_table();
    const std::string path = args.out + "/" + args.workload + ".trace.json";
    if (an.write_chrome_trace(path, 64))
      std::cout << "wrote " << path << " (first 64 traced ops)\n";
    else
      run.fail(1, "cannot write " + path);
  }

  bool declared_ok = true;
  for (const auto& [name, m] : metrics) {
    if (m.unit.empty()) {
      std::cerr << "wormnet_bench: undeclared metric " << name << "\n";
      declared_ok = false;
    }
    if (!std::isfinite(m.value)) {
      std::cerr << "wormnet_bench: non-finite metric " << name << "\n";
      declared_ok = false;
    }
  }
  if (!declared_ok) return 3;

  std::cout << "ops " << n_ops << " in " << loop_s << " s, attempted "
            << run.attempted_count() << ", failed " << run.failed_count() << "\n";
  std::string json = "{\"workload\": \"" + args.workload + "\", \"correct\": " +
                     (run.failed_count() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted_count()) +
                     ", \"failed\": " + std::to_string(run.failed_count()) +
                     ", \"threads\": " + std::to_string(threads) +
                     ", \"host\": {\"compiler\": \"" + kCompiler +
                     "\", \"build_type\": \"" + kBuildType + "\"}" +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace wormnet_bench

int main(int argc, char** argv) { return wormnet_bench::run_main(argc, argv); }
