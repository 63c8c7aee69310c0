// Span recording, attribution and the per-layer analysis of traced runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string_view>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace wormnet_bench {

namespace {

/// Library span names → the module (layer) that emits them.
std::string library_layer(const std::string& name, const std::string& cat) {
  if (name == "query_batch") return "harness.query";
  if (name == "sim_campaign") return "harness.sim";
  if (name == "retune_traffic" || name == "retune_faults" ||
      name == "resident_rebuild_cold")
    return "core.retune";
  if (name == "build_traffic_model") return "core.build";
  if (name == "solve_general_model") return "core.solve";
  return "lib." + cat;
}

/// Nesting depth class: op 0, benchmark spans 1, library engine spans 2,
/// library build/retune spans 3, solves 4.  A span's parent is the
/// enclosing span of the highest lower rank.
int rank_of(const Span& s) {
  if (!s.library) return s.name == "op" ? 0 : 1;
  if (s.layer == "harness.query" || s.layer == "harness.sim") return 2;
  if (s.layer == "core.solve") return 4;
  return 3;
}
constexpr int kRanks = 5;

bool contains(const Span& outer, const Span& inner) {
  return outer.ts <= inner.ts && inner.ts + inner.dur <= outer.ts + outer.dur;
}

/// Length of the union of [ts, ts+dur) intervals, clipped to [lo, hi).
double union_length(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                    std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      if (open) total += static_cast<double>(cur_b - cur_a);
      cur_a = a;
      cur_b = b;
      open = true;
    }
  }
  if (open) total += static_cast<double>(cur_b - cur_a);
  return total;
}

}  // namespace

Recorder::Scope::Scope(Recorder* rec, const char* name, const char* layer,
                       bool quiet)
    : rec_(rec), name_(name), layer_(layer), quiet_(quiet) {
  if (!rec_) return;
  if (quiet_) wormnet::obs::set_tracing(false);
  t0_ = wormnet::obs::trace_now_us();
}

Recorder::Scope::~Scope() {
  if (!rec_) return;
  if (quiet_) wormnet::obs::set_tracing(true);
  Span s;
  s.name = name_;
  s.layer = layer_;
  s.ts = t0_;
  s.dur = wormnet::obs::trace_now_us() - t0_;
  s.tid = wormnet::obs::trace_tid();
  rec_->spans_.push_back(std::move(s));
}

void Recorder::set_active(bool on) {
  active_ = on;
  wormnet::obs::set_tracing(on);
}

std::vector<Span> Recorder::harvest() {
  std::vector<Span> all = std::move(spans_);
  spans_.clear();
  for (const wormnet::obs::TraceEvent& e : wormnet::obs::default_trace().events()) {
    if (e.ph != 'X' || e.pid != 1) continue;
    Span s;
    s.name = e.name;
    s.layer = library_layer(e.name, e.cat);
    s.ts = e.ts;
    s.dur = e.dur;
    s.tid = e.tid;
    s.library = true;
    all.push_back(std::move(s));
  }
  wormnet::obs::default_trace().clear();

  // Ops in time order; every other span joins the op containing its start.
  std::vector<std::size_t> ops;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (rank_of(all[i]) == 0) ops.push_back(i);
  std::sort(ops.begin(), ops.end(),
            [&](std::size_t a, std::size_t b) { return all[a].ts < all[b].ts; });
  for (std::size_t k = 0; k < ops.size(); ++k) all[ops[k]].op = static_cast<int>(k);
  std::vector<std::vector<std::size_t>> members(ops.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (rank_of(all[i]) == 0) continue;
    const auto it = std::upper_bound(
        ops.begin(), ops.end(), all[i].ts,
        [&](std::int64_t ts, std::size_t o) { return ts < all[o].ts; });
    if (it == ops.begin()) continue;
    const Span& op = all[*(it - 1)];
    if (all[i].ts > op.ts + op.dur) continue;
    all[i].op = op.op;
    members[static_cast<std::size_t>(op.op)].push_back(i);
  }

  // Parent: the enclosing span of the highest lower rank (the smallest on a
  // tie).  Library build/retune/solve spans nest on their own thread; a
  // batch or campaign span adopts children from every worker thread.
  for (std::size_t k = 0; k < ops.size(); ++k) {
    std::vector<std::size_t> outers{ops[k]};
    for (std::size_t i : members[k])
      if (rank_of(all[i]) < kRanks - 1) outers.push_back(i);
    for (std::size_t i : members[k]) {
      const int r = rank_of(all[i]);
      std::size_t best = ops[k];
      for (std::size_t c : outers) {
        if (c == i) continue;
        const int rc = rank_of(all[c]);
        if (rc >= r || !contains(all[c], all[i])) continue;
        if (rc >= 3 && all[c].tid != all[i].tid) continue;
        const int rb = rank_of(all[best]);
        if (rc > rb || (rc == rb && all[c].dur < all[best].dur)) best = c;
      }
      all[i].parent = static_cast<int>(best);
    }
  }
  return all;
}

Analysis Analysis::of(std::vector<Span> spans) {
  Analysis a;
  a.spans = std::move(spans);
  const std::size_t n = a.spans.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  std::vector<double> child_busy(n, 0.0);
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = a.spans[i];
    if (s.op < 0) continue;  // outside every traced op
    if (static_cast<std::size_t>(s.op) >= members.size())
      members.resize(static_cast<std::size_t>(s.op) + 1);
    members[static_cast<std::size_t>(s.op)].push_back(i);
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    children[p].push_back({s.ts, s.ts + s.dur});
    child_busy[p] += static_cast<double>(s.dur);
  }

  for (const std::vector<std::size_t>& op_spans : members) {
    // Busy / self per span.
    const Span* op = nullptr;
    for (std::size_t i : op_spans) {
      const Span& s = a.spans[i];
      const double self = static_cast<double>(s.dur) -
                          union_length(children[i], s.ts, s.ts + s.dur);
      if (rank_of(s) == 0) {
        op = &s;
        ++a.traced_ops;
        a.op_wall_us += static_cast<double>(s.dur);
        continue;
      }
      const auto add = [&](Stat& st) {
        ++st.count;
        st.busy_us += static_cast<double>(s.dur);
        st.self_us += self;
        st.child_us += child_busy[i];
      };
      add(a.by_name[s.name]);
      // A span nested in a span of its own layer (a benchmark call and the
      // library span it wraps) counts once toward the layer's busy time.
      const Span& parent = a.spans[static_cast<std::size_t>(s.parent)];
      if (rank_of(parent) > 0 && parent.layer == s.layer)
        a.by_layer[s.layer].self_us += self;
      else
        add(a.by_layer[s.layer]);
    }
    if (op == nullptr) continue;

    // Exclusive attribution: sweep the op interval and give each elementary
    // segment to the deepest active layer (nothing active: unattributed).
    struct Edge {
      std::int64_t t;
      int delta;
      int rank;
      std::string_view layer;
    };
    std::vector<Edge> edges;
    for (std::size_t i : op_spans) {
      const Span& s = a.spans[i];
      const std::int64_t lo = std::max(s.ts, op->ts);
      const std::int64_t hi = std::min(s.ts + s.dur, op->ts + op->dur);
      if (rank_of(s) == 0 || hi <= lo) continue;
      edges.push_back({lo, +1, rank_of(s), s.layer});
      edges.push_back({hi, -1, rank_of(s), s.layer});
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& x, const Edge& y) { return x.t < y.t; });
    std::map<std::string_view, int> active[kRanks];
    std::int64_t t = op->ts;
    auto attribute = [&](std::int64_t until) {
      if (until <= t) return;
      const double len = static_cast<double>(until - t);
      for (int r = kRanks - 1; r >= 1; --r) {
        for (const auto& [layer, count] : active[r]) {
          if (count <= 0) continue;
          a.by_layer[std::string(layer)].excl_us += len;
          return;
        }
      }
      a.unattributed_us += len;
    };
    for (const Edge& e : edges) {
      attribute(e.t);
      t = std::max(t, e.t);
      active[e.rank][e.layer] += e.delta;
    }
    attribute(op->ts + op->dur);
  }
  return a;
}

const Analysis::Stat& Analysis::stat(const std::string& name) const {
  static const Stat kNone;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kNone : it->second;
}

bool Analysis::write_chrome_trace(const std::string& path, int max_ops) const {
  wormnet::obs::TraceLog log;
  for (const Span& s : spans) {
    if (s.op < 0 || s.op >= max_ops) continue;
    log.complete(s.name, s.layer, s.ts, s.dur, s.tid);
  }
  return log.write(path);
}

std::string Analysis::layer_table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "  %-16s %9s %12s %12s %12s %8s\n", "layer",
                "spans", "busy_ms", "self_ms", "excl_ms", "excl%");
  out += line;
  const double wall = op_wall_us > 0.0 ? op_wall_us : 1.0;
  for (const auto& [layer, st] : by_layer) {
    std::snprintf(line, sizeof line, "  %-16s %9ld %12.3f %12.3f %12.3f %7.2f%%\n",
                  layer.c_str(), st.count, st.busy_us / 1e3, st.self_us / 1e3,
                  st.excl_us / 1e3, 100.0 * st.excl_us / wall);
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-16s %9s %12s %12s %12.3f %7.2f%%\n",
                "(unattributed)", "", "", "", unattributed_us / 1e3,
                100.0 * unattributed_us / wall);
  out += line;
  std::snprintf(line, sizeof line, "  %-16s %9ld %12s %12s %12.3f %7.2f%%\n",
                "(traced ops)", traced_ops, "", "", op_wall_us / 1e3, 100.0);
  out += line;
  return out;
}

void Run::fail(long n, const std::string& why) {
  if (n <= 0) return;
  if (failed_ < 5) std::cerr << "wormnet_bench: check failed: " << why << "\n";
  failed_ += n;
}

double rel_diff(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) return a == b ? 0.0 : INFINITY;
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace wormnet_bench
