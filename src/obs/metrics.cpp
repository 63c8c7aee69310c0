#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wormnet::obs {

namespace {

// Shortest round-trippable formatting for doubles; integers print bare.
std::string num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

// "k=v,k=v" → `k="v",k="v"`; `extra` (already rendered) is appended last.
std::string prometheus_labels(std::string_view labels, std::string_view extra) {
  std::string out;
  std::size_t pos = 0;
  while (pos < labels.size()) {
    std::size_t comma = labels.find(',', pos);
    if (comma == std::string_view::npos) comma = labels.size();
    std::string_view item = labels.substr(pos, comma - pos);
    std::size_t eq = item.find('=');
    if (!item.empty()) {
      if (!out.empty()) out += ',';
      if (eq == std::string_view::npos) {
        out += "tag=\"";
        out += item;
        out += '"';
      } else {
        out += item.substr(0, eq);
        out += "=\"";
        out += item.substr(eq + 1);
        out += '"';
      }
    }
    pos = comma + 1;
  }
  if (!extra.empty()) {
    if (!out.empty()) out += ',';
    out += extra;
  }
  if (out.empty()) return "";
  return "{" + out + "}";
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

HistogramMetric::HistogramMetric(std::vector<double> edges)
    : edges_(std::move(edges)) {
  if (edges_.empty()) throw std::logic_error("histogram needs >= 1 edge");
  if (!std::is_sorted(edges_.begin(), edges_.end()))
    throw std::logic_error("histogram edges must ascend");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
}

void HistogramMetric::observe(double x) {
  std::size_t i =
      std::lower_bound(edges_.begin(), edges_.end(), x) - edges_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not everywhere; CAS instead.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed))
    ;
}

void HistogramMetric::reset() {
  for (std::size_t i = 0; i <= edges_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const SnapshotEntry* Snapshot::find(std::string_view name,
                                    std::string_view labels) const {
  for (const SnapshotEntry& e : entries)
    if (e.name == name && e.labels == labels) return &e;
  return nullptr;
}

Registry::Entry& Registry::find_or_insert(std::string_view name,
                                          std::string_view labels,
                                          MetricKind kind) {
  Key key{std::string(name), std::string(labels)};
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("metric '" + key.first +
                             "' re-registered with a different kind");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  return metrics_.emplace(std::move(key), std::move(e)).first->second;
}

Counter& Registry::counter(std::string_view name, std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = find_or_insert(name, labels, MetricKind::Counter);
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = find_or_insert(name, labels, MetricKind::Gauge);
  if (!e.g) e.g = std::make_unique<Gauge>();
  return *e.g;
}

HistogramMetric& Registry::histogram(std::string_view name,
                                     std::vector<double> edges,
                                     std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = find_or_insert(name, labels, MetricKind::Histogram);
  if (!e.h) {
    e.h = std::make_unique<HistogramMetric>(std::move(edges));
  } else if (e.h->edges() != edges) {
    throw std::logic_error("histogram '" + std::string(name) +
                           "' re-registered with different edges");
  }
  return *e.h;
}

double Registry::value(std::string_view name, std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(Key{std::string(name), std::string(labels)});
  if (it == metrics_.end()) return 0.0;
  const Entry& e = it->second;
  switch (e.kind) {
    case MetricKind::Counter: return static_cast<double>(e.c->value());
    case MetricKind::Gauge: return e.g->value();
    case MetricKind::Histogram: return e.h->sum();
  }
  return 0.0;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const auto& [key, e] : metrics_) {
    SnapshotEntry out;
    out.name = key.first;
    out.labels = key.second;
    out.kind = e.kind;
    switch (e.kind) {
      case MetricKind::Counter:
        out.value = static_cast<double>(e.c->value());
        break;
      case MetricKind::Gauge:
        out.value = e.g->value();
        break;
      case MetricKind::Histogram: {
        out.edges = e.h->edges();
        out.buckets.resize(out.edges.size() + 1);
        for (std::size_t i = 0; i < out.buckets.size(); ++i)
          out.buckets[i] = e.h->bucket(i);
        out.count = e.h->count();
        out.sum = e.h->sum();
        out.value = out.sum;
        break;
      }
    }
    snap.entries.push_back(std::move(out));
  }
  return snap;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : metrics_) {
    (void)key;
    if (e.c) e.c->reset();
    if (e.g) e.g->reset();
    if (e.h) e.h->reset();
  }
}

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"metrics\": [\n";
  for (std::size_t n = 0; n < snap.entries.size(); ++n) {
    const SnapshotEntry& e = snap.entries[n];
    out += "    {\"name\": ";
    append_json_escaped(out, e.name);
    out += ", \"labels\": ";
    append_json_escaped(out, e.labels);
    out += ", \"kind\": \"";
    out += kind_name(e.kind);
    out += "\"";
    if (e.kind == MetricKind::Histogram) {
      out += ", \"count\": " + num(static_cast<double>(e.count));
      out += ", \"sum\": " + num(e.sum);
      out += ", \"edges\": [";
      for (std::size_t i = 0; i < e.edges.size(); ++i)
        out += (i ? ", " : "") + num(e.edges[i]);
      out += "], \"buckets\": [";
      for (std::size_t i = 0; i < e.buckets.size(); ++i)
        out += (i ? ", " : "") + num(static_cast<double>(e.buckets[i]));
      out += "]";
    } else {
      out += ", \"value\": " + num(e.value);
    }
    out += n + 1 < snap.entries.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string to_csv(const Snapshot& snap) {
  std::string out = "name,labels,kind,value,count\n";
  for (const SnapshotEntry& e : snap.entries) {
    out += e.name;
    out += ',';
    out += '"';
    out += e.labels;
    out += '"';
    out += ',';
    out += kind_name(e.kind);
    out += ',';
    out += num(e.kind == MetricKind::Histogram ? e.sum : e.value);
    out += ',';
    out += num(static_cast<double>(e.count));
    out += '\n';
  }
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_typed;
  for (const SnapshotEntry& e : snap.entries) {
    if (e.name != last_typed) {
      out += "# TYPE " + e.name + " " + kind_name(e.kind) + "\n";
      last_typed = e.name;
    }
    if (e.kind == MetricKind::Histogram) {
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < e.buckets.size(); ++i) {
        cum += e.buckets[i];
        const std::string le =
            i < e.edges.size() ? "le=\"" + num(e.edges[i]) + "\""
                               : std::string("le=\"+Inf\"");
        out += e.name + "_bucket" + prometheus_labels(e.labels, le) + " " +
               num(static_cast<double>(cum)) + "\n";
      }
      out += e.name + "_sum" + prometheus_labels(e.labels, "") + " " +
             num(e.sum) + "\n";
      out += e.name + "_count" + prometheus_labels(e.labels, "") + " " +
             num(static_cast<double>(e.count)) + "\n";
    } else {
      out += e.name + prometheus_labels(e.labels, "") + " " + num(e.value) +
             "\n";
    }
  }
  return out;
}

}  // namespace wormnet::obs
