// The resident-engine workloads: whatif_tune, whatif_retune, availability_n1.
//
// All three drive one harness::QueryEngine holding a dense BFT(4) resident
// (N = 256) from a single client thread.  Checks run outside the timed
// calls: every answer is finite or carries a classifying SolveStatus; an
// answer asked again is bit-equal to the first one; every 64th fresh answer
// agrees with a cold build (delta == cold, ≤ 1e-9); every 64th batch is
// re-run bit for bit on a serial, unmemoized engine (parallel == serial).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/traffic_model.hpp"
#include "harness/query_engine.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"

namespace wormnet_bench {
namespace {

using namespace wormnet;
using harness::QueryCost;
using harness::QueryMetric;
using harness::QueryResult;
using harness::WhatIfQuery;

constexpr double kTol = 1e-9;            // delta == cold, relative
constexpr long kBitwiseEvery = 64;       // parallel == serial: every 64th batch
constexpr long kColdEvery = 64;          // delta == cold: every 64th fresh answer
constexpr long kEpochBatches = 1024;     // session epoch: caches reset
constexpr std::size_t kHistory = 512;    // repeats are drawn from here
constexpr double kRepeatShare = 0.15;    // of all queries
constexpr int kLevels = 4;               // BFT(4): N = 256

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return util::splitmix64(s);
}
std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t estimate_digest(const core::LatencyEstimate& e) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(e.stable),
                        static_cast<std::uint64_t>(e.status));
  for (double v : {e.latency, e.inj_wait, e.inj_service, e.mean_distance,
                   e.unroutable_fraction})
    h = mix(h, bits_of(v));
  return h;
}

/// Digest of every value bit of an answer: equal digests mean bit-equal
/// answers (the cost class and retune report legitimately differ between
/// a fresh and a memoized answer and are left out).
std::uint64_t answer_digest(const QueryResult& r) {
  std::uint64_t h = mix(estimate_digest(r.est), static_cast<std::uint64_t>(r.metric));
  h = mix(h, bits_of(r.saturation_rate));
  for (const harness::ClassLoadRow& row : r.breakdown) {
    h = mix(h, static_cast<std::uint64_t>(row.class_id));
    for (double v : {row.rate, row.utilization, row.wait, row.service_time, row.ca2})
      h = mix(h, bits_of(v));
  }
  return h;
}

/// Empty when the answer is finite or classified by its SolveStatus.
std::string answer_problem(const QueryResult& r, int classes) {
  switch (r.metric) {
    case QueryMetric::Latency:
      if (std::isnan(r.est.latency) || std::isnan(r.est.inj_wait))
        return "NaN latency";
      if (!std::isfinite(r.est.latency) && r.est.status == core::SolveStatus::Ok)
        return "non-finite latency with status ok";
      return "";
    case QueryMetric::Saturation:
      return std::isfinite(r.saturation_rate) && r.saturation_rate > 0.0
                 ? ""
                 : "saturation rate not finite and positive";
    case QueryMetric::ClassBreakdown:
      if (static_cast<int>(r.breakdown.size()) != classes)
        return "breakdown row count";
      for (const harness::ClassLoadRow& row : r.breakdown)
        if (std::isnan(row.utilization) || std::isnan(row.wait) ||
            (r.est.stable && !std::isfinite(row.wait)))
          return "breakdown row not finite";
      return "";
  }
  return "unknown metric";
}

/// One generated question and its canonical key (what makes two questions
/// the same question: metric, every delta, λ₀ unless the metric ignores it).
struct Question {
  WhatIfQuery q;
  std::uint64_t key = 0;
  std::uint64_t traffic_key = 0;  ///< 0: the resident's own traffic
};

std::uint64_t question_key(const WhatIfQuery& q, std::uint64_t traffic_key) {
  std::uint64_t h = mix(static_cast<std::uint64_t>(q.metric), traffic_key);
  h = mix(h, bits_of(q.load_scale));
  h = mix(h, static_cast<std::uint64_t>(q.lanes));
  h = mix(h, static_cast<std::uint64_t>(q.buffer_depth));
  h = mix(h, bits_of(q.bandwidth_scale));
  h = mix(h, q.arrival ? bits_of(q.arrival->batch_residual()) + 1 : 0);
  if (q.metric != QueryMetric::Saturation) h = mix(h, bits_of(q.lambda0));
  return h;
}

/// An O(channels) tune of the resident: load, lanes, buffers, bandwidth or
/// arrival process (mix weights in the workload table of README.md).
void random_tune(util::Rng& rng, WhatIfQuery& q, double u) {
  if (u < 0.30 / 0.75) {
    q.load_scale = uniform_in(rng, 0.6, 1.4);
  } else if (u < 0.45 / 0.75) {
    static const int kLanes[] = {2, 3, 4, 8};
    q.lanes = kLanes[rng.uniform_int(4)];
  } else if (u < 0.55 / 0.75) {
    static const int kDepth[] = {2, 4, 8, 16};
    q.buffer_depth = kDepth[rng.uniform_int(4)];
  } else if (u < 0.65 / 0.75) {
    q.bandwidth_scale = uniform_in(rng, 0.5, 2.0);
  } else {
    q.arrival = arrivals::ArrivalSpec::batch(uniform_in(rng, 1.5, 6.0));
  }
}

/// The resident engine, its checks and its counters, shared by the three
/// workloads.
class EngineWorkload : public Workload {
 public:
  void prepare_checks(Run&) override {
    harness::QueryEngine::Options o;
    o.threads = 1;
    o.parallel = false;
    o.memoize = false;
    serial_ = std::make_unique<harness::QueryEngine>(*topo_, base_spec_, o);
    cold_base_ = core::build_traffic_model(*topo_, base_spec_);
  }

  void layer_metrics(const Analysis&, MetricMap& m) const override {
    put(m, "setup.topo_ms", setup_topo_ms_, 1);
    put(m, "setup.model_ms", setup_model_ms_, 1);
    put(m, "setup.baseline_ms", setup_baseline_ms_, 1);
    const auto served = static_cast<long>(engine_->queries_served() - c0_.served);
    if (served > 0) {
      const auto share = [&](std::uint64_t now, std::uint64_t then) {
        return static_cast<double>(now - then) / static_cast<double>(served);
      };
      put(m, "query.memoized_share", share(engine_->served_memoized(), c0_.memoized), served);
      put(m, "query.reevaluate_share", share(engine_->served_reevaluate(), c0_.reevaluate),
          served);
      put(m, "query.retune_share", share(engine_->served_retune(), c0_.retune), served);
      put(m, "query.rebuild_share", share(engine_->served_rebuild(), c0_.rebuild), served);
    }
    const double ops = std::max(1.0, static_cast<double>(measured_ops_));
    put(m, "query.variants_per_batch",
        static_cast<double>(engine_->variants_prepared() - c0_.variants) / ops,
        measured_ops_);
    const double hits = static_cast<double>(engine_->sweep_cache_hits() - c0_.hits);
    const double misses =
        static_cast<double>(engine_->sweep_cache_misses() - c0_.misses);
    if (hits + misses > 0.0)
      put(m, "sweep.cache_hit_ratio", hits / (hits + misses),
          static_cast<long>(hits + misses));
    put(m, "sweep.evaluations_per_op", misses / ops, measured_ops_);
    if (retuned_variants_ > 0) {
      const auto n = static_cast<double>(retuned_variants_);
      put(m, "core.retune.passes_per_variant", static_cast<double>(retune_passes_) / n,
          retuned_variants_);
      put(m, "core.retune.changed_pairs_per_variant",
          static_cast<double>(retune_pairs_) / n, retuned_variants_);
    }
  }

 protected:
  /// One fresh construction: topology, engine + resident, baseline λ₀*.
  void construct(Run& run, traffic::TrafficSpec spec) {
    base_spec_ = std::move(spec);
    Clock::time_point t = Clock::now();
    topo_ = std::make_unique<topo::ButterflyFatTree>(kLevels);
    setup_topo_ms_ = 1e3 * seconds_since(t);
    t = Clock::now();
    harness::QueryEngine::Options o;
    o.threads = run.threads();
    engine_ = std::make_unique<harness::QueryEngine>(*topo_, base_spec_, o);
    setup_model_ms_ = 1e3 * seconds_since(t);
    t = Clock::now();
    WhatIfQuery sat;
    sat.metric = QueryMetric::Saturation;
    sat0_ = engine_->run(sat).saturation_rate;
    setup_baseline_ms_ = 1e3 * seconds_since(t);
  }

  /// Counter snapshot at the first measured op.
  void begin_measured(bool warmup) {
    if (warmup) return;
    if (measured_ops_++ > 0) return;
    c0_ = {engine_->queries_served(),   engine_->served_memoized(),
           engine_->served_reevaluate(), engine_->served_retune(),
           engine_->served_rebuild(),    engine_->variants_prepared(),
           engine_->sweep_cache_hits(),  engine_->sweep_cache_misses()};
  }

  /// Draw a repeat of an earlier question, or nullptr for a fresh one.
  const Question* maybe_repeat() {
    if (history_.empty() || rng_.uniform() >= kRepeatShare) return nullptr;
    return &history_[rng_.uniform_int(history_.size())];
  }
  void remember(const Question& q) {
    if (history_.size() < kHistory) history_.push_back(q);
    else history_[next_slot_++ % kHistory] = q;
  }

  /// One what-if batch: time run_batch, then check every answer.
  void batch(Run& run, const std::vector<Question>& qs, bool warmup) {
    begin_measured(warmup);
    std::vector<WhatIfQuery> queries;
    queries.reserve(qs.size());
    for (const Question& q : qs) queries.push_back(q.q);
    const std::vector<QueryResult> res =
        run.call("QueryEngine::run_batch", "harness.query",
                 [&] { return engine_->run_batch(0, queries); });
    run.add_items(static_cast<double>(qs.size()));
    run.attempted(static_cast<long>(qs.size()));

    Recorder::Scope check = run.check();
    const int classes = engine_->resident_model(0).model().graph.size();
    std::unordered_set<std::uint64_t> variants_seen;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const QueryResult& r = res[i];
      if (const std::string p = answer_problem(r, classes); !p.empty()) {
        run.fail(1, "answer " + std::to_string(i) + ": " + p);
        continue;
      }
      const auto [it, fresh_key] = first_answer_.emplace(qs[i].key, answer_digest(r));
      if (!fresh_key && it->second != answer_digest(r)) {
        run.fail(1, "repeated question answered differently");
        continue;
      }
      if (r.cost == QueryCost::Memoized) continue;
      if ((r.cost == QueryCost::Retune || r.cost == QueryCost::Rebuild) && !warmup &&
          variants_seen.insert(qs[i].traffic_key).second) {
        ++retuned_variants_;
        retune_passes_ += r.retune.passes;
        retune_pairs_ += r.retune.changed_pairs;
      }
      if (fresh_++ % kColdEvery == 0) {
        if (const std::string p = cold_mismatch(qs[i].q, r); !p.empty())
          run.fail(1, "delta != cold: " + p);
      }
    }
    if (batches_ % kBitwiseEvery == 0) {
      const std::vector<QueryResult> serial = serial_->run_batch(0, queries);
      for (std::size_t i = 0; i < qs.size(); ++i)
        if (answer_digest(serial[i]) != answer_digest(res[i]))
          run.fail(1, "parallel != serial on query " + std::to_string(i));
    }
    if (++batches_ % kEpochBatches == 0) {
      // A new session epoch: the engine's caches and the benchmark's
      // history restart, which keeps memory bounded however long the run.
      engine_->clear_cache();
      first_answer_.clear();
      history_.clear();
      next_slot_ = 0;
    }
  }

  /// Delta == cold: build the variant cold with the same tunes and
  /// compare the answer (empty string on agreement).
  std::string cold_mismatch(const WhatIfQuery& q, const QueryResult& r) const {
    core::GeneralModel m =
        q.traffic ? core::build_traffic_model(*topo_, *q.traffic) : cold_base_;
    if (q.lanes != 0) m.set_uniform_lanes(q.lanes);
    if (q.buffer_depth != 0) m.set_uniform_buffers(q.buffer_depth);
    if (q.bandwidth_scale != 1.0) {
      std::vector<double> bw(static_cast<std::size_t>(m.graph.size()));
      for (int id = 0; id < m.graph.size(); ++id)
        bw[static_cast<std::size_t>(id)] = m.graph.at(id).bandwidth * q.bandwidth_scale;
      m.set_channel_bandwidths(bw);
    }
    if (q.load_scale != 1.0) m.scale_injection_rates(q.load_scale);
    if (q.arrival) m.set_injection_process(*q.arrival, q.lambda0);
    switch (q.metric) {
      case QueryMetric::Latency: {
        const core::LatencyEstimate e = m.evaluate(q.lambda0);
        if (e.status != r.est.status || rel_diff(r.est.latency, e.latency) > kTol)
          return "latency " + std::to_string(r.est.latency) + " vs " +
                 std::to_string(e.latency);
        return "";
      }
      case QueryMetric::Saturation: {
        const double s = core::model_saturation_rate(m, m.opts);
        return rel_diff(r.saturation_rate, s) > kTol ? "saturation rate" : "";
      }
      case QueryMetric::ClassBreakdown: {
        const core::SolveResult sol = m.solve(q.lambda0);
        if (sol.channels.size() != r.breakdown.size()) return "class count";
        for (std::size_t id = 0; id < r.breakdown.size(); ++id) {
          const core::ChannelSolution& c = sol.channels[id];
          const harness::ClassLoadRow& row = r.breakdown[id];
          if (rel_diff(row.utilization, c.utilization) > kTol ||
              rel_diff(row.wait, c.wait) > kTol ||
              rel_diff(row.service_time, c.service_time) > kTol)
            return "class " + std::to_string(id);
        }
        return "";
      }
    }
    return "unknown metric";
  }

  std::unique_ptr<topo::ButterflyFatTree> topo_;
  std::unique_ptr<harness::QueryEngine> engine_;
  std::unique_ptr<harness::QueryEngine> serial_;  ///< parallel == serial
  traffic::TrafficSpec base_spec_;
  double sat0_ = 0.0;
  util::Rng rng_{0};

 private:
  struct Counters {
    std::uint64_t served, memoized, reevaluate, retune, rebuild, variants, hits,
        misses;
  };
  double setup_topo_ms_ = 0.0, setup_model_ms_ = 0.0, setup_baseline_ms_ = 0.0;
  core::GeneralModel cold_base_;
  std::unordered_map<std::uint64_t, std::uint64_t> first_answer_;  ///< key → digest
  std::vector<Question> history_;
  std::size_t next_slot_ = 0;
  long batches_ = 0, fresh_ = 0, measured_ops_ = 0;
  long retuned_variants_ = 0, retune_passes_ = 0, retune_pairs_ = 0;
  Counters c0_{};
};

/// whatif_tune: 16-query batches of O(channels) tunes, saturation and class
/// breakdowns against a uniform resident.
class WhatIfTune final : public EngineWorkload {
 public:
  void setup(Run& run) override {
    construct(run, traffic::TrafficSpec::uniform());
    rng_ = stream(run.seed(), 1);
  }
  int warmup_ops() const override { return 100; }

  void op(Run& run, bool warmup) override {
    std::vector<Question> qs;
    {
      Recorder::Scope gen = run.gen();
      for (int i = 0; i < 16; ++i) qs.push_back(next_question());
    }
    batch(run, qs, warmup);
  }

 private:
  Question next_question() {
    if (const Question* r = maybe_repeat()) return *r;
    Question g;
    WhatIfQuery& q = g.q;
    q.lambda0 = uniform_in(rng_, 0.1, 0.8) * sat0_;
    const double u = rng_.uniform();
    if (u < 0.75) {
      random_tune(rng_, q, u / 0.75);
    } else if (u < 0.90) {
      static const int kLanes[] = {1, 2, 4, 8};
      q.metric = QueryMetric::Saturation;
      q.lanes = kLanes[rng_.uniform_int(4)];
    } else {
      q.metric = QueryMetric::ClassBreakdown;
    }
    g.key = question_key(q, 0);
    remember(g);
    return g;
  }
};

/// A seeded derangement (Sattolo's algorithm: one cycle, no fixed point).
std::vector<int> derangement(int n, util::Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint64_t>(i)));
    std::swap(p[static_cast<std::size_t>(i)], p[j]);
  }
  return p;
}

/// whatif_retune: 8-query batches against a permutation resident; half the
/// questions re-wire k ∈ {1,2,4,8} source pairs (retune_traffic), the rest
/// are O(channels) tunes or repeats.
class WhatIfRetune final : public EngineWorkload {
 public:
  void setup(Run& run) override {
    util::Rng perm_rng = stream(run.seed(), 2);
    base_dest_ = derangement(1 << (2 * kLevels), perm_rng);
    construct(run, traffic::TrafficSpec::permutation(base_dest_));
    rng_ = stream(run.seed(), 3);
  }
  int warmup_ops() const override { return 50; }

  void op(Run& run, bool warmup) override {
    std::vector<Question> qs;
    {
      Recorder::Scope gen = run.gen();
      for (int i = 0; i < 8; ++i) qs.push_back(next_question());
    }
    batch(run, qs, warmup);
  }

 private:
  Question next_question() {
    if (const Question* r = maybe_repeat()) return *r;
    Question g;
    WhatIfQuery& q = g.q;
    q.lambda0 = uniform_in(rng_, 0.1, 0.8) * sat0_;
    if (rng_.uniform() < 0.50 / (1.0 - kRepeatShare)) {
      static const int kSwaps[] = {1, 2, 4, 8};
      std::vector<int> dest = base_dest_;
      const int n = static_cast<int>(dest.size());
      for (int done = 0, want = kSwaps[rng_.uniform_int(4)]; done < want;) {
        const auto a = static_cast<std::size_t>(rng_.uniform_int(static_cast<std::uint64_t>(n)));
        const auto b = static_cast<std::size_t>(rng_.uniform_int(static_cast<std::uint64_t>(n)));
        // Swapping the destinations of a and b must not send either home.
        if (a == b || dest[b] == static_cast<int>(a) || dest[a] == static_cast<int>(b))
          continue;
        std::swap(dest[a], dest[b]);
        ++done;
      }
      std::uint64_t h = 0x7065726dULL;
      for (int d : dest) h = mix(h, static_cast<std::uint64_t>(d));
      g.traffic_key = h;
      q.traffic = traffic::TrafficSpec::permutation(std::move(dest));
      if (rng_.uniform() < 0.30) q.metric = QueryMetric::Saturation;
    } else {
      random_tune(rng_, q, rng_.uniform());
    }
    g.key = question_key(q, g.traffic_key);
    remember(g);
    return g;
  }

  std::vector<int> base_dest_;
};

/// availability_n1: full N−1 sweeps (224 single-link failures) at a fresh
/// λ₀ each, served by retune_faults.
class AvailabilityN1 final : public EngineWorkload {
 public:
  void setup(Run& run) override {
    construct(run, traffic::TrafficSpec::uniform());
    rng_ = stream(run.seed(), 4);
  }
  int warmup_ops() const override { return 1; }

  void op(Run& run, bool warmup) override {
    begin_measured(warmup);
    double lambda0 = 0.0;
    {
      Recorder::Scope gen = run.gen();
      lambda0 = uniform_in(rng_, 0.2, 0.7) * sat0_;
    }
    const harness::AvailabilityReport rep =
        run.call("QueryEngine::availability_n_minus_1", "harness.query",
                 [&] { return engine_->availability_n_minus_1(0, lambda0); });
    const auto rows = static_cast<long>(rep.rows.size());
    run.add_items(static_cast<double>(rows));
    run.attempted(rows);

    Recorder::Scope check = run.check();
    if (rows == 0) run.fail(1, "N-1 sweep returned no scenarios");
    for (const harness::AvailabilityRow& row : rep.rows) {
      if (row.est.status != core::SolveStatus::Ok || !std::isfinite(row.est.latency))
        run.fail(1, "N-1 row " + row.label + " not ok");
    }
    // Four seeded scenarios: a cold build on the FaultedTopology view
    // (delta == cold) and the serial, unmemoized engine (parallel ==
    // serial), whose RetuneReport also gives the passes per scenario.
    std::vector<WhatIfQuery> probes;
    std::vector<const harness::AvailabilityRow*> picked;
    for (int k = 0; k < 4 && rows > 0; ++k) {
      const harness::AvailabilityRow& row =
          rep.rows[rng_.uniform_int(static_cast<std::uint64_t>(rows))];
      const topo::FaultedTopology view(*topo_, *row.faults);
      const core::LatencyEstimate cold =
          core::build_traffic_model(view, base_spec_).evaluate(lambda0);
      if (cold.status != row.est.status || rel_diff(row.est.latency, cold.latency) > kTol)
        run.fail(1, "N-1 row " + row.label + " differs from its cold build");
      WhatIfQuery q;
      q.lambda0 = lambda0;
      q.faults = row.faults;
      probes.push_back(q);
      picked.push_back(&row);
    }
    const std::vector<QueryResult> serial = serial_->run_batch(0, probes);
    for (std::size_t k = 0; k < serial.size(); ++k) {
      if (estimate_digest(serial[k].est) != estimate_digest(picked[k]->est))
        run.fail(1, "N-1 row " + picked[k]->label + ": parallel != serial");
      if (!warmup) {
        ++probe_scenarios_;
        probe_passes_ += serial[k].retune.passes;
      }
    }
  }

  void layer_metrics(const Analysis& an, MetricMap& m) const override {
    EngineWorkload::layer_metrics(an, m);
    if (probe_scenarios_ > 0)
      put(m, "core.retune_faults.passes_per_scenario",
          static_cast<double>(probe_passes_) / static_cast<double>(probe_scenarios_),
          probe_scenarios_);
  }

 private:
  long probe_scenarios_ = 0, probe_passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_query_workload(const std::string& name) {
  if (name == "whatif_tune") return std::make_unique<WhatIfTune>();
  if (name == "whatif_retune") return std::make_unique<WhatIfRetune>();
  if (name == "availability_n1") return std::make_unique<AvailabilityN1>();
  return nullptr;
}

}  // namespace wormnet_bench
