#include "harness/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/symmetry.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::harness {

namespace {

/// Structural digest of a TrafficSpec delta for variant grouping.  Folds the
/// exact parameter bit patterns (never the lossy name() rendering, so nearby
/// hotspot fractions stay distinct); Permutation folds its full destination
/// map, Matrix every weight.  Content, not address: the answer cache
/// outlives the query's spec, so equal matrices share a variant and a later
/// matrix at a recycled address cannot alias an earlier one.
std::uint64_t spec_digest(const traffic::TrafficSpec& spec, int procs) {
  std::uint64_t h = util::hash_mix(0x7261666669637173ULL,
                                   static_cast<std::uint64_t>(spec.pattern()));
  h = util::hash_mix_double(h, spec.hotspot_fraction());
  h = util::hash_mix(h, static_cast<std::uint64_t>(spec.hotspot_node()));
  if (spec.pattern() == traffic::Pattern::Permutation) {
    for (int src = 0; src < procs; ++src)
      h = util::hash_mix(
          h, static_cast<std::uint64_t>(spec.fixed_destination(src, procs)));
  }
  if (const traffic::TrafficMatrix* m = spec.matrix_payload()) {
    const auto n = static_cast<std::size_t>(m->size());
    h = util::hash_words(h, n * n, [&](std::size_t i) {
      return util::double_bits(m->at(static_cast<int>(i / n),
                                     static_cast<int>(i % n)));
    });
  }
  return h;
}

/// Variant key: which prepared model a query needs, run under `faults`
/// (the query's own fault set, or its link orbit's representative).  Starts
/// from the resident baseline's content digest so keys never collide across
/// residents; the arrival axis folds the (effective SCV, batch residual)
/// pair the model actually consumes — two processes indistinguishable to
/// the solver correctly share a variant, and Bernoulli's rate-dependent SCV
/// separates by λ₀ on its own.
std::uint64_t variant_key(std::uint64_t baseline_digest, const WhatIfQuery& q,
                          const topo::FaultSet* faults, int procs) {
  std::uint64_t h = baseline_digest;
  h = util::hash_mix(h, q.traffic ? spec_digest(*q.traffic, procs) : 0);
  h = util::hash_mix_double(h, q.load_scale);
  h = util::hash_mix(h, static_cast<std::uint64_t>(q.lanes));
  h = util::hash_mix(h, static_cast<std::uint64_t>(q.buffer_depth));
  h = util::hash_mix_double(h, q.bandwidth_scale);
  if (q.arrival) {
    h = util::hash_mix(h, 1);
    h = util::hash_mix_double(h, q.arrival->effective_ca2(q.lambda0));
    h = util::hash_mix_double(h, q.arrival->batch_residual());
  }
  // Content digest, not pointer identity: two FaultSets failing the same
  // links share a variant, and an empty set IS the healthy baseline.
  h = util::hash_mix(h, faults && !faults->empty() ? faults->digest() : 0);
  return h;
}

/// Result-cache key: the variant plus the question asked of it.
std::uint64_t answer_key(std::uint64_t vkey, const WhatIfQuery& q) {
  std::uint64_t h = util::hash_mix(vkey, static_cast<std::uint64_t>(q.metric));
  if (q.metric != QueryMetric::Saturation)
    h = util::hash_mix_double(h, q.lambda0);
  return h;
}

/// True when the orbit rule applies to `q`: it fails exactly one link, no
/// switch, and keeps the resident's traffic (every other delta is uniform,
/// so it commutes with the automorphisms).
bool single_link_fault(const WhatIfQuery& q) {
  return q.faults && q.faults->failed_links().size() == 1 &&
         q.faults->failed_switches().empty() && !q.traffic;
}

/// The failable (switch-to-switch) undirected links of `t`, each once from
/// its canonical (lower) endpoint, in (node, port) order: the N−1
/// enumeration order, which also picks every link orbit's representative.
std::vector<std::pair<int, int>> failable_links(const topo::Topology& t) {
  std::vector<std::pair<int, int>> links;
  for (int node = 0; node < t.num_nodes(); ++node) {
    if (t.is_processor(node)) continue;
    for (int port = 0; port < t.num_ports(node); ++port) {
      const int peer = t.neighbor(node, port);
      if (peer == topo::kNoNode || t.is_processor(peer)) continue;
      if (std::make_pair(peer, t.neighbor_port(node, port)) <
          std::make_pair(node, port))
        continue;
      links.emplace_back(node, port);
    }
  }
  return links;
}

/// Map key of a (node, port) link or of a channel-class pair.
std::uint64_t pair_key(std::pair<int, int> p) {
  return (static_cast<std::uint64_t>(p.first) << 32) |
         static_cast<std::uint64_t>(p.second);
}

bool is_identity(const WhatIfQuery& q) {
  return !q.traffic && q.load_scale == 1.0 && q.lanes == 0 &&
         q.buffer_depth == 0 && q.bandwidth_scale == 1.0 && !q.arrival &&
         (!q.faults || q.faults->empty());
}

/// Fallback row label for availability scenarios: the failed links, e.g.
/// "link 12:3+link 12:4" (a failed switch expands to its links).
std::string fault_label(const topo::FaultSet& faults) {
  std::string s;
  for (const auto& [node, port] : faults.failed_links()) {
    if (!s.empty()) s += "+";
    s += "link " + std::to_string(node) + ":" + std::to_string(port);
  }
  return s.empty() ? "healthy" : s;
}

}  // namespace

struct QueryEngine::Impl {
  struct Resident {
    const topo::Topology* topo = nullptr;
    core::RetunableTrafficModel baseline;
    /// The baseline's solve plan, which also carries its content digest.
    /// Identity variants evaluate through it, and tune variants share its
    /// structure half.
    core::SolvePlan plan;

    /// Link-orbit table (built by build_link_orbits on the first single-link
    /// fault query): canonical link → its orbit representative's fault set.
    /// Empty when the resident declares no fault symmetry, which leaves
    /// every link its own orbit.
    bool orbits_built = false;
    std::unordered_map<std::uint64_t, std::shared_ptr<const topo::FaultSet>>
        orbit_rep;

    Resident(const topo::Topology& t, const traffic::TrafficSpec& spec,
             const Options& o)
        : topo(&t), baseline(t, spec, o.solve, o.build), plan(baseline.model()) {}

    /// The fault set single-link query `q` is planned under: its orbit
    /// representative, or its own set when the link is its own orbit.
    std::shared_ptr<const topo::FaultSet> orbit_representative(
        const WhatIfQuery& q) {
      if (!orbits_built) build_link_orbits();
      const auto it = orbit_rep.find(pair_key(q.faults->failed_links().front()));
      return it == orbit_rep.end() ? q.faults : it->second;
    }

    void build_link_orbits() {
      orbits_built = true;
      std::vector<int> pins;
      if (!baseline.spec().symmetric(pins) || !topo->has_fault_symmetry(pins))
        return;
      topo::SymmetryClasses sym;
      if (!topo::topology_symmetry(*topo, pins, sym)) return;
      const auto class_of = [&](int node, int port) {
        return sym.class_of_key.at(topo->channel_symmetry_key(node, port, pins));
      };
      // The classes are orbits, and an automorphism carries a link's two
      // directions together, so the unordered class pair of a link names
      // its orbit.
      std::unordered_map<std::uint64_t, std::shared_ptr<const topo::FaultSet>>
          by_orbit;
      for (const std::pair<int, int>& link : failable_links(*topo)) {
        const int a = class_of(link.first, link.second);
        const int b = class_of(topo->neighbor(link.first, link.second),
                               topo->neighbor_port(link.first, link.second));
        auto& rep = by_orbit[pair_key(std::minmax(a, b))];
        if (!rep) {
          auto fs = std::make_shared<topo::FaultSet>(*topo);
          fs->fail_link(link.first, link.second);
          rep = std::move(fs);
        }
        orbit_rep.emplace(pair_key(link), rep);
      }
    }
  };

  /// One prepared model variant of a batch (model == nullptr: the baseline
  /// itself, untouched, solved through the resident's plan).
  struct Variant {
    std::uint64_t key = 0;
    int rep_query = -1;  ///< first query index needing this variant
    /// The fault set it runs under: the query's own, or the representative
    /// of the query's link orbit.
    std::shared_ptr<const topo::FaultSet> faults;
    std::unique_ptr<core::GeneralModel> model;
    /// The model's solve plan, built once in the prepare phase; every job
    /// of this variant evaluates through it.  It dies with the batch.
    std::unique_ptr<const core::SolvePlan> plan;
    core::RetuneReport report;
    QueryCost basis = QueryCost::Reevaluate;
  };

  Options opts;
  std::unique_ptr<util::ThreadPool> pool;  ///< null when serial
  std::vector<std::unique_ptr<Resident>> residents;
  std::unordered_map<std::uint64_t, int> resident_by_key;
  SweepEngine sweep;  ///< serial: evaluate() is called from our own workers
  std::unordered_map<std::uint64_t, QueryResult> answers;

  std::uint64_t served = 0, n_memoized = 0, n_symmetric = 0, n_reevaluate = 0,
                n_retune = 0, n_rebuild = 0, n_variants = 0;
  double batch_seconds = 0.0;  ///< wall time inside run_batch, for queries/sec

  explicit Impl(Options o)
      : opts(o),
        sweep(SweepEngine::Options{1, /*parallel=*/false, o.memoize}) {
    if (opts.parallel) pool = std::make_unique<util::ThreadPool>(opts.threads);
  }

  void prepare(const Resident& r, Variant& v, const WhatIfQuery& q) {
    if (is_identity(q)) return;  // basis stays Reevaluate, model stays null
    const bool faulted = v.faults && !v.faults->empty();
    const bool rewired = q.traffic || faulted;
    if (rewired) {
      // A traffic or fault delta rewires the model: retune a local clone of
      // the resident and keep only the model it assembles.
      core::RetunableTrafficModel clone = r.baseline;
      if (faulted) {
        // Fault delta first, so a traffic retune in the same query already
        // runs under the degraded routing — the two deltas compose.
        v.report = clone.retune_faults(v.faults);
        v.basis = v.report.rebuilt ? QueryCost::Rebuild : QueryCost::Retune;
      }
      if (q.traffic) {
        const core::RetuneReport tr = clone.retune_traffic(*q.traffic);
        v.report.rebuilt = v.report.rebuilt || tr.rebuilt;
        v.report.collapsed = v.report.collapsed || tr.collapsed;
        v.report.passes += tr.passes;
        v.report.changed_pairs += tr.changed_pairs;
        v.report.nodes_visited += tr.nodes_visited;
        if (v.basis != QueryCost::Rebuild)
          v.basis = tr.rebuilt ? QueryCost::Rebuild : QueryCost::Retune;
      }
      v.model = std::make_unique<core::GeneralModel>(std::move(clone.model()));
    } else {
      v.model = std::make_unique<core::GeneralModel>(r.baseline.model());
    }
    core::GeneralModel& m = *v.model;
    if (q.lanes != 0) m.set_uniform_lanes(q.lanes);
    if (q.buffer_depth != 0) m.set_uniform_buffers(q.buffer_depth);
    if (q.bandwidth_scale != 1.0) m.scale_bandwidths(q.bandwidth_scale);
    if (q.load_scale != 1.0) m.scale_injection_rates(q.load_scale);
    if (q.arrival) m.set_injection_process(*q.arrival, q.lambda0);
    // Tunes leave the wiring alone, so only a rewired variant needs a
    // structure of its own; the rest derive just the attribute half.
    v.plan = rewired
                 ? std::make_unique<const core::SolvePlan>(m)
                 : std::make_unique<const core::SolvePlan>(m, r.plan.structure());
  }

  QueryResult evaluate(const Resident& r, const Variant& v,
                       const WhatIfQuery& q) {
    const core::GeneralModel& m = v.model ? *v.model : r.baseline.model();
    const core::SolvePlan& plan = v.plan ? *v.plan : r.plan;
    QueryResult res;
    res.metric = q.metric;
    res.retune = v.report;
    switch (q.metric) {
      case QueryMetric::Latency:
        res.est = sweep.evaluate(plan, q.lambda0);
        break;
      case QueryMetric::Saturation:
        // One Eq. 26 search through the variant's plan.  The answer cache
        // keeps the result; its probes (about 20) are not memoized one by
        // one.
        res.saturation_rate = plan.saturation_rate();
        break;
      case QueryMetric::ClassBreakdown: {
        const core::SolveResult sol = plan.solve(q.lambda0);
        res.est.stable = sol.stable;
        res.breakdown.resize(static_cast<std::size_t>(m.graph.size()));
        for (int id = 0; id < m.graph.size(); ++id) {
          ClassLoadRow& row = res.breakdown[static_cast<std::size_t>(id)];
          const core::ChannelSolution& c =
              sol.channels[static_cast<std::size_t>(id)];
          row.class_id = id;
          row.label = m.graph.at(id).label;
          row.rate = m.graph.at(id).rate_per_link * q.lambda0;
          row.utilization = c.utilization;
          row.wait = c.wait;
          row.service_time = c.service_time;
          row.ca2 = c.ca2;
        }
        break;
      }
    }
    return res;
  }
};

QueryEngine::QueryEngine(Options opts) : impl_(std::make_unique<Impl>(opts)) {}

QueryEngine::QueryEngine(const topo::Topology& topo,
                         const traffic::TrafficSpec& base_spec, Options opts)
    : QueryEngine(opts) {
  resident(topo, base_spec);
}

QueryEngine::~QueryEngine() = default;

int QueryEngine::resident(const topo::Topology& topo,
                          const traffic::TrafficSpec& base_spec) {
  WORMNET_EXPECTS(base_spec.check(topo.num_processors()).empty());
  const std::uint64_t key =
      util::hash_mix(reinterpret_cast<std::uintptr_t>(&topo),
                     spec_digest(base_spec, topo.num_processors()));
  const auto it = impl_->resident_by_key.find(key);
  if (it != impl_->resident_by_key.end()) return it->second;
  impl_->residents.push_back(
      std::make_unique<Impl::Resident>(topo, base_spec, impl_->opts));
  const int id = static_cast<int>(impl_->residents.size()) - 1;
  impl_->resident_by_key.emplace(key, id);
  return id;
}

std::size_t QueryEngine::num_residents() const {
  return impl_->residents.size();
}

const core::RetunableTrafficModel& QueryEngine::resident_model(int id) const {
  WORMNET_EXPECTS(id >= 0 &&
                  id < static_cast<int>(impl_->residents.size()));
  return impl_->residents[static_cast<std::size_t>(id)]->baseline;
}

std::vector<QueryResult> QueryEngine::run_batch(
    int resident_id, const std::vector<WhatIfQuery>& queries) {
  WORMNET_SPAN("query_batch", "query");
  WORMNET_EXPECTS(resident_id >= 0 &&
                  resident_id < static_cast<int>(impl_->residents.size()));
  Impl& im = *impl_;
  const auto batch_t0 = std::chrono::steady_clock::now();
  Impl::Resident& r = *im.residents[static_cast<std::size_t>(resident_id)];
  const int procs = r.topo->num_processors();
  const std::size_t n = queries.size();
  std::vector<QueryResult> results(n);

  // Plan (serial, deterministic): group queries into model variants, split
  // them into cached answers, in-batch duplicates and fresh jobs.  A
  // single-link fault query is planned under its link orbit's representative
  // fault set; own_link keeps the link it asked about.
  enum class Serve { Cached, Dup, Job };
  std::vector<Serve> serve(n, Serve::Job);
  std::vector<int> variant_of(n, -1);
  std::vector<std::size_t> rep_of(n, 0);  // Dup: index holding the answer
  std::vector<std::uint64_t> akeys(n, 0);
  std::vector<std::pair<int, int>> own_link(n, {-1, -1});
  std::vector<Impl::Variant> variants;
  std::unordered_map<std::uint64_t, int> variant_index;
  std::unordered_map<std::uint64_t, std::size_t> first_with_answer;
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const WhatIfQuery& q = queries[i];
    WORMNET_EXPECTS(q.load_scale > 0.0);
    WORMNET_EXPECTS(q.lanes >= 0);
    WORMNET_EXPECTS(q.buffer_depth >= 0);
    WORMNET_EXPECTS(q.bandwidth_scale > 0.0);
    WORMNET_EXPECTS(!q.traffic || q.traffic->check(procs).empty());
    // A fault set validates its links against ONE topology; a set built
    // against some other fabric would index this resident's ports wrongly.
    WORMNET_EXPECTS(!q.faults || &q.faults->topology() == r.topo);
    std::shared_ptr<const topo::FaultSet> faults = q.faults;
    if (single_link_fault(q)) {
      own_link[i] = q.faults->failed_links().front();
      faults = r.orbit_representative(q);
    }
    const std::uint64_t vkey =
        variant_key(r.plan.digest(), q, faults.get(), procs);
    const std::uint64_t akey = answer_key(vkey, q);
    akeys[i] = akey;
    if (im.opts.memoize) {
      if (im.answers.count(akey)) {
        serve[i] = Serve::Cached;
        continue;
      }
      const auto [it, fresh] = first_with_answer.emplace(akey, i);
      if (!fresh) {
        serve[i] = Serve::Dup;
        rep_of[i] = it->second;
        variant_of[i] = variant_of[it->second];
        continue;
      }
    }
    const auto [vit, vfresh] =
        variant_index.emplace(vkey, static_cast<int>(variants.size()));
    if (vfresh) {
      variants.emplace_back();
      variants.back().key = vkey;
      variants.back().rep_query = static_cast<int>(i);
      variants.back().faults = std::move(faults);
    }
    variant_of[i] = vit->second;
    jobs.push_back(i);
  }

  // Prepare the variants the jobs actually need (parallel: each prep works
  // on its own copy of the baseline; determinism rides on the retune APIs'
  // own thread-count-invariance contract).
  const auto prep_one = [&](std::int64_t v) {
    Impl::Variant& variant = variants[static_cast<std::size_t>(v)];
    im.prepare(r, variant, queries[static_cast<std::size_t>(variant.rep_query)]);
  };
  if (im.pool && variants.size() > 1) {
    util::parallel_for(*im.pool, static_cast<std::int64_t>(variants.size()),
                       prep_one);
  } else {
    for (std::size_t v = 0; v < variants.size(); ++v)
      prep_one(static_cast<std::int64_t>(v));
  }

  // Evaluate the fresh jobs.  Pure functions of (model content, λ₀): the
  // schedule can reorder work but never change a result bit.
  const auto eval_one = [&](std::int64_t j) {
    const std::size_t i = jobs[static_cast<std::size_t>(j)];
    results[i] = im.evaluate(
        r, variants[static_cast<std::size_t>(variant_of[i])], queries[i]);
  };
  if (im.pool && jobs.size() > 1) {
    util::parallel_for(*im.pool, static_cast<std::int64_t>(jobs.size()),
                       eval_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j)
      eval_one(static_cast<std::int64_t>(j));
  }

  // Fill cached answers and duplicates, assign cost classes, and commit
  // fresh answers to the cache (serial, input order — deterministic).
  const auto memoized = [](QueryResult& res) {
    res.cost = QueryCost::Memoized;
    res.retune = core::RetuneReport{};
    res.representative = nullptr;
  };
  // Symmetric when the variant runs under another link than the query's
  // own; otherwise the variant's own preparation cost.
  const auto own_cost = [&](QueryResult& res, std::size_t i) {
    const Impl::Variant& v = variants[static_cast<std::size_t>(variant_of[i])];
    const bool moved = own_link[i].first >= 0 &&
                       own_link[i] != v.faults->failed_links().front();
    res.cost = moved ? QueryCost::Symmetric : v.basis;
    res.representative = moved ? v.faults : nullptr;
  };
  for (std::size_t i = 0; i < n; ++i) {
    switch (serve[i]) {
      case Serve::Cached:
        results[i] = im.answers.at(akeys[i]);
        memoized(results[i]);
        break;
      case Serve::Dup:
        // The same answer key; the identical question only when it also
        // asked about the same link (orbit mates share the key).
        results[i] = results[rep_of[i]];
        if (own_link[i] == own_link[rep_of[i]]) memoized(results[i]);
        else own_cost(results[i], i);
        break;
      case Serve::Job:
        own_cost(results[i], i);
        if (im.opts.memoize) im.answers.emplace(akeys[i], results[i]);
        break;
    }
    ++im.served;
    switch (results[i].cost) {
      case QueryCost::Memoized: ++im.n_memoized; break;
      case QueryCost::Symmetric: ++im.n_symmetric; break;
      case QueryCost::Reevaluate: ++im.n_reevaluate; break;
      case QueryCost::Retune: ++im.n_retune; break;
      case QueryCost::Rebuild: ++im.n_rebuild; break;
    }
  }
  im.n_variants += variants.size();
  im.batch_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_t0)
          .count();
  return results;
}

std::vector<QueryResult> QueryEngine::run_batch(
    const std::vector<WhatIfQuery>& queries) {
  return run_batch(0, queries);
}

QueryResult QueryEngine::run(const WhatIfQuery& query) { return run(0, query); }

QueryResult QueryEngine::run(int resident_id, const WhatIfQuery& query) {
  return run_batch(resident_id, {query}).front();
}

AvailabilityReport QueryEngine::availability_n_minus_1(int resident_id,
                                                       double lambda0) {
  WORMNET_EXPECTS(resident_id >= 0 &&
                  resident_id < static_cast<int>(impl_->residents.size()));
  const topo::Topology& t =
      *impl_->residents[static_cast<std::size_t>(resident_id)]->topo;
  std::vector<std::shared_ptr<const topo::FaultSet>> scenarios;
  std::vector<std::string> labels;
  for (const auto& [node, port] : failable_links(t)) {
    auto fs = std::make_shared<topo::FaultSet>(t);
    fs->fail_link(node, port);
    labels.push_back(fault_label(*fs));
    scenarios.push_back(std::move(fs));
  }
  return availability_scenarios(resident_id, lambda0, std::move(scenarios),
                                std::move(labels));
}

AvailabilityReport QueryEngine::availability_scenarios(
    int resident_id, double lambda0,
    std::vector<std::shared_ptr<const topo::FaultSet>> scenarios,
    std::vector<std::string> labels) {
  WORMNET_EXPECTS(labels.empty() || labels.size() == scenarios.size());
  std::vector<WhatIfQuery> queries;
  queries.reserve(scenarios.size() + 1);
  WhatIfQuery probe;
  probe.metric = QueryMetric::Latency;
  probe.lambda0 = lambda0;
  queries.push_back(probe);  // the healthy baseline, an identity query
  for (const std::shared_ptr<const topo::FaultSet>& fs : scenarios) {
    WORMNET_EXPECTS(fs != nullptr);
    WhatIfQuery q = probe;
    q.faults = fs;
    queries.push_back(std::move(q));
  }
  const std::vector<QueryResult> res = run_batch(resident_id, queries);

  AvailabilityReport report;
  report.lambda0 = lambda0;
  report.baseline = res.front().est;
  report.rows.resize(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    AvailabilityRow& row = report.rows[s];
    row.label = labels.empty() ? fault_label(*scenarios[s]) : labels[s];
    row.faults = scenarios[s];
    row.est = res[s + 1].est;
    row.cost = res[s + 1].cost;
    row.representative = res[s + 1].representative;
    if (row.est.status == core::SolveStatus::Ok) ++report.scenarios_ok;
  }
  // Worst-first: unroutable demand dominates, then latency.  The status
  // contract guarantees latency is never NaN, so the comparator is a strict
  // weak ordering; stable_sort keeps enumeration order on ties.
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const AvailabilityRow& a, const AvailabilityRow& b) {
                     if (a.est.unroutable_fraction != b.est.unroutable_fraction)
                       return a.est.unroutable_fraction > b.est.unroutable_fraction;
                     return a.est.latency > b.est.latency;
                   });
  return report;
}

std::uint64_t QueryEngine::queries_served() const { return impl_->served; }
std::uint64_t QueryEngine::served_memoized() const { return impl_->n_memoized; }
std::uint64_t QueryEngine::served_symmetric() const {
  return impl_->n_symmetric;
}
std::uint64_t QueryEngine::served_reevaluate() const {
  return impl_->n_reevaluate;
}
std::uint64_t QueryEngine::served_retune() const { return impl_->n_retune; }
std::uint64_t QueryEngine::served_rebuild() const { return impl_->n_rebuild; }
std::uint64_t QueryEngine::variants_prepared() const {
  return impl_->n_variants;
}
std::uint64_t QueryEngine::sweep_cache_hits() const {
  return impl_->sweep.cache_hits();
}
std::uint64_t QueryEngine::sweep_cache_misses() const {
  return impl_->sweep.cache_misses();
}
double QueryEngine::batch_seconds() const { return impl_->batch_seconds; }

void QueryEngine::clear_cache() {
  impl_->answers.clear();
  impl_->sweep.clear_cache();
}

void QueryEngine::publish_metrics(obs::Registry& reg,
                                  std::string_view label) const {
  const Impl& im = *impl_;
  std::string l = "engine=";
  l += label;
  // The cost-class histogram as a labeled gauge family: one series per
  // QueryCost, same metric name, so text exporters group them.
  reg.gauge("wormnet_query_served", l + ",cost=memoized")
      .set(static_cast<double>(im.n_memoized));
  reg.gauge("wormnet_query_served", l + ",cost=symmetric")
      .set(static_cast<double>(im.n_symmetric));
  reg.gauge("wormnet_query_served", l + ",cost=reevaluate")
      .set(static_cast<double>(im.n_reevaluate));
  reg.gauge("wormnet_query_served", l + ",cost=retune")
      .set(static_cast<double>(im.n_retune));
  reg.gauge("wormnet_query_served", l + ",cost=rebuild")
      .set(static_cast<double>(im.n_rebuild));
  reg.gauge("wormnet_query_served_total", l).set(static_cast<double>(im.served));
  reg.gauge("wormnet_query_variants_prepared", l)
      .set(static_cast<double>(im.n_variants));
  reg.gauge("wormnet_query_residents", l)
      .set(static_cast<double>(im.residents.size()));
  reg.gauge("wormnet_query_answer_cache_size", l)
      .set(static_cast<double>(im.answers.size()));
  reg.gauge("wormnet_query_batch_seconds", l).set(im.batch_seconds);
  reg.gauge("wormnet_query_queries_per_sec", l)
      .set(im.batch_seconds > 0.0
               ? static_cast<double>(im.served) / im.batch_seconds
               : 0.0);
  im.sweep.publish_metrics(reg, label);
}

}  // namespace wormnet::harness
