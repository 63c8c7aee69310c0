// The engine-less workloads: fabric_scale (symmetry-collapsed sizing of
// 16k–262k-endpoint fat-trees) and sim_crosscheck (the model-vs-simulator
// conformance campaign).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/general_model.hpp"
#include "core/traffic_model.hpp"
#include "harness/sim_engine.hpp"
#include "harness/sweep_engine.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet_bench {
namespace {

using namespace wormnet;

/// fabric_scale: each round builds and evaluates six collapsed designs —
/// BFT levels 7, 8, 9 under uniform and under a seeded hotspot(f, h) — with
/// build_traffic_model_collapsed and a fresh SweepEngine per design
/// (saturation rate plus an 8-point curve).  No resident, no QueryEngine.
class FabricScale final : public Workload {
 public:
  static constexpr int kLevels[3] = {7, 8, 9};
  static constexpr int kParityLevels = 5;

  void setup(Run& run) override {
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t = Clock::now();
      topos_[i] = std::make_unique<topo::ButterflyFatTree>(kLevels[i]);
      topo_ms_[i] = 1e3 * seconds_since(t);
    }
    rng_ = stream(run.seed(), 5);
  }
  int warmup_ops() const override { return 1; }

  void op(Run& run, bool warmup) override {
    double f = 0.0, h = 0.0;
    {
      Recorder::Scope gen = run.gen();
      f = uniform_in(rng_, 0.02, 0.2);
      h = rng_.uniform();
    }
    if (warmup) {
      parity_f_ = f;
      parity_h_ = h;
    }
    for (int i = 0; i < 3; ++i) {
      const topo::ButterflyFatTree& ft = *topos_[i];
      const int node = static_cast<int>(h * ft.num_processors());
      for (const traffic::TrafficSpec& spec :
           {traffic::TrafficSpec::uniform(), traffic::TrafficSpec::hotspot(f, node)}) {
        design(run, i, spec, warmup);
      }
    }
  }

  void finish(Run& run) override {
    // Collapsed == dense at a size the dense build can afford.
    const topo::ButterflyFatTree ft(kParityLevels);
    const int node = static_cast<int>(parity_h_ * ft.num_processors());
    for (const traffic::TrafficSpec& spec :
         {traffic::TrafficSpec::uniform(), traffic::TrafficSpec::hotspot(parity_f_, node)}) {
      run.attempted(1);
      const core::GeneralModel m = core::build_traffic_model_collapsed(ft, spec);
      if (m.channel_class_of.empty())
        run.fail(1, "BFT(5) " + spec.name() + " did not collapse");
      else if (const std::string p = core::check_collapsed_parity(ft, spec, m); !p.empty())
        run.fail(1, "collapsed != dense on BFT(5) " + spec.name() + ": " + p);
    }
  }

  void layer_metrics(const Analysis&, MetricMap& m) const override {
    static const char* const kL[3] = {"L7", "L8", "L9"};
    double topo_total = 0.0;
    for (int i = 0; i < 3; ++i) {
      topo_total += topo_ms_[i];
      put(m, std::string("topo.build_ms.") + kL[i], topo_ms_[i], 1);
      if (designs_[i] == 0) continue;
      const double n = static_cast<double>(designs_[i]);
      put(m, std::string("core.build_collapsed_ms.") + kL[i], build_ms_[i] / n,
          designs_[i]);
      put(m, std::string("core.collapsed_classes.") + kL[i], classes_[i] / n,
          designs_[i]);
    }
    put(m, "setup.topo_ms", topo_total, 1);
    const long designs = designs_[0] + designs_[1] + designs_[2];
    if (designs == 0) return;
    const double n = static_cast<double>(designs);
    put(m, "sweep.saturation_ms", sat_ms_ / n, designs);
    put(m, "sweep.curve_ms", curve_ms_ / n, designs);
    put(m, "sweep.evaluations_per_op", evaluations_ / (n / 6.0), designs / 6);
    if (evaluations_ + hits_ > 0.0)
      put(m, "sweep.cache_hit_ratio", hits_ / (evaluations_ + hits_),
          static_cast<long>(evaluations_ + hits_));
  }

 private:
  void design(Run& run, int level, const traffic::TrafficSpec& spec, bool warmup) {
    const core::GeneralModel model = run.call(
        "build_traffic_model_collapsed", "core.build",
        [&] { return core::build_traffic_model_collapsed(*topos_[level], spec); });
    const double build_s = run.last_call_seconds();
    auto engine = run.call("SweepEngine()", "harness.sweep", [&] {
      return std::make_unique<harness::SweepEngine>(
          harness::SweepEngine::Options{run.threads(), true, true});
    });
    const double sat = run.call("SweepEngine::saturation_rate", "harness.sweep",
                                [&] { return engine->saturation_rate(model); });
    const double sat_s = run.last_call_seconds();
    const std::vector<harness::SweepPoint> curve =
        run.call("SweepEngine::sweep_saturation_fractions", "harness.sweep",
                 [&] { return engine->sweep_saturation_fractions(model, kFractions); });
    const double curve_s = run.last_call_seconds();
    run.add_items(1);
    run.attempted(1);

    Recorder::Scope check = run.check();
    const std::string what = "BFT(" + std::to_string(kLevels[level]) + ") " + spec.name();
    if (model.channel_class_of.empty()) run.fail(1, what + " did not collapse");
    else if (!(std::isfinite(sat) && sat > 0.0)) run.fail(1, what + " saturation rate");
    else if (curve.size() != kFractions.size()) run.fail(1, what + " curve size");
    else {
      for (std::size_t k = 0; k < curve.size(); ++k) {
        const core::LatencyEstimate& e = curve[k].est;
        if (e.status != core::SolveStatus::Ok || !std::isfinite(e.latency) ||
            (k > 0 && e.latency < curve[k - 1].est.latency)) {
          run.fail(1, what + " curve point " + std::to_string(k));
          break;
        }
      }
    }
    if (warmup) return;
    ++designs_[level];
    build_ms_[level] += 1e3 * build_s;
    classes_[level] += model.graph.size();
    sat_ms_ += 1e3 * sat_s;
    curve_ms_ += 1e3 * curve_s;
    evaluations_ += static_cast<double>(engine->cache_misses());
    hits_ += static_cast<double>(engine->cache_hits());
  }

  static inline const std::vector<double> kFractions = {0.1, 0.2, 0.3, 0.4,
                                                        0.5, 0.6, 0.7, 0.8};
  std::unique_ptr<topo::ButterflyFatTree> topos_[3];
  double topo_ms_[3] = {0, 0, 0};
  util::Rng rng_{0};
  double parity_f_ = 0.1, parity_h_ = 0.0;
  long designs_[3] = {0, 0, 0};
  double build_ms_[3] = {0, 0, 0}, classes_[3] = {0, 0, 0};
  double sat_ms_ = 0.0, curve_ms_ = 0.0, evaluations_ = 0.0, hits_ = 0.0;
};

/// sim_crosscheck: each campaign runs the 18-cell conformance grid
/// {BFT(3), Mesh(3,3), Hypercube(4)} × {uniform, hotspot 0.1} × lanes
/// {1, 2, 4}, plus BFT(5) uniform at lanes {1, 2}, each at 0.2 and 0.5 of
/// its own model λ₀*, as one SimEngine::run_cells.  The 36 grid pairs must
/// hold the documented 10% / 15% model-vs-sim bounds.
class SimCrosscheck final : public Workload {
 public:
  void setup(Run& run) override {
    for (int kind = 0; kind < 3; ++kind)
      for (bool hotspot : {false, true})
        for (int lanes : {1, 2, 4}) cells_.push_back({kind, hotspot, lanes, true});
    for (int lanes : {1, 2}) cells_.push_back({3, false, lanes, false});

    Clock::time_point t = Clock::now();
    for (const Cell& c : cells_) topology(c);
    setup_topo_ms_ = 1e3 * seconds_since(t);
    t = Clock::now();
    engine_ = std::make_unique<harness::SimEngine>(
        harness::SimEngine::Options{run.threads(), true});
    std::vector<core::GeneralModel> models;
    for (const Cell& c : cells_)
      models.push_back(core::build_traffic_model(*topology(c), spec(c), solve_opts()));
    setup_model_ms_ = 1e3 * seconds_since(t);
    t = Clock::now();
    for (const core::GeneralModel& m : models)
      baseline_sat_.push_back(core::model_saturation_rate(m, solve_opts()));
    setup_baseline_ms_ = 1e3 * seconds_since(t);
  }
  int warmup_ops() const override { return 1; }

  void op(Run& run, bool warmup) override {
    const std::uint64_t campaign = campaigns_++;
    // Model side: build, λ₀*, and the latency at both loads, per cell.
    std::vector<double> sat(cells_.size());
    std::vector<double> model_latency(2 * cells_.size());
    run.call("model_side", "core", [&] {
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        const core::GeneralModel m =
            core::build_traffic_model(*topology(cells_[i]), spec(cells_[i]), solve_opts());
        sat[i] = core::model_saturation_rate(m, solve_opts());
        for (int j = 0; j < 2; ++j)
          model_latency[2 * i + static_cast<std::size_t>(j)] =
              core::model_latency(m, sat[i] * kLoads[j], solve_opts()).latency;
      }
    });
    const double model_s = run.last_call_seconds();

    std::vector<harness::SimCell> sim_cells;
    {
      Recorder::Scope gen = run.gen();
      const std::uint64_t base = stream(run.seed(), 100 + campaign).next_u64() >> 16;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        for (int j = 0; j < 2; ++j) {
          harness::SimCell sc;
          sc.topology = topology(cells_[i]);
          sc.label = label(cells_[i]);
          sc.cfg.load_flits = sat[i] * kLoads[j] * kWormFlits;
          sc.cfg.worm_flits = kWormFlits;
          sc.cfg.seed = base + 64 * sim_cells.size();
          sc.cfg.traffic = spec(cells_[i]);
          const bool large = cells_[i].kind == 3;
          sc.cfg.warmup_cycles = 10'000;
          sc.cfg.measure_cycles = large ? 40'000 : 150'000;
          sc.cfg.max_cycles = sc.cfg.warmup_cycles + sc.cfg.measure_cycles + 400'000;
          sc.cfg.channel_stats = false;
          sc.replications = large ? 2 : 3;
          sim_cells.push_back(std::move(sc));
        }
      }
    }
    const std::uint64_t nets0 = engine_->networks_built();
    const std::uint64_t reps0 = engine_->replications_run();
    const std::vector<harness::SimCellResult> res =
        run.call("SimEngine::run_cells", "harness.sim",
                 [&] { return engine_->run_cells(sim_cells); });
    const double sim_s = run.last_call_seconds();
    double cycles = 0.0, flits = 0.0;
    for (const harness::SimCellResult& r : res)
      for (const sim::SimResult& s : r.runs) {
        cycles += static_cast<double>(s.cycles_run);
        flits += static_cast<double>(s.delivered_flits);
      }
    run.add_items(cycles);
    run.attempted(static_cast<long>(res.size()));

    Recorder::Scope check = run.check();
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (!same_bits(sat[i], baseline_sat_[i]))
        run.fail(1, label(cells_[i]) + ": rebuilt model's saturation rate differs");
    double err_sum = 0.0, err_max = 0.0, err_large = 0.0;
    for (std::size_t k = 0; k < res.size(); ++k) {
      const Cell& c = cells_[k / 2];
      const std::string what =
          res[k].label + " at " + std::to_string(kLoads[k % 2]) + " of saturation";
      if (!res[k].all_completed || res[k].any_saturated) {
        run.fail(1, what + " did not complete unsaturated");
        continue;
      }
      const double sim_latency = res[k].latency.mean;
      const double err = std::abs(model_latency[k] - sim_latency) / sim_latency;
      if (!c.documented) {
        err_large += err;
        continue;
      }
      err_sum += err;
      err_max = std::max(err_max, err);
      if (!(err <= kBounds[k % 2]))
        run.fail(1, what + ": model-vs-sim error " + std::to_string(err));
    }
    if (warmup && campaign == 0) {
      // The first campaign always runs, so its accuracy is a pure function
      // of the seed.
      err_pct_ = 100.0 * err_sum / 36.0;
      err_pct_max_ = 100.0 * err_max;
      err_pct_large_ = 100.0 * err_large / 4.0;
    }
    if (warmup) return;
    ++measured_;
    campaign_ms_ += 1e3 * sim_s;
    model_side_ms_ += 1e3 * model_s;
    cycles_ += cycles;
    flits_ += flits;
    sim_ns_ += 1e9 * sim_s;
    replications_ += static_cast<double>(engine_->replications_run() - reps0);
    networks_ += static_cast<double>(engine_->networks_built() - nets0);
  }

  void layer_metrics(const Analysis&, MetricMap& m) const override {
    put(m, "setup.topo_ms", setup_topo_ms_, 1);
    put(m, "setup.model_ms", setup_model_ms_, 1);
    put(m, "setup.baseline_ms", setup_baseline_ms_, 1);
    put(m, "sim.model_err_pct", err_pct_, 36);
    put(m, "sim.err_pct_max", err_pct_max_, 36);
    put(m, "sim.err_pct_bft5", err_pct_large_, 4);
    if (measured_ == 0) return;
    const double n = static_cast<double>(measured_);
    put(m, "sim.campaign_ms", campaign_ms_ / n, measured_);
    put(m, "sim.model_side_ms", model_side_ms_ / n, measured_);
    put(m, "sim.cycles_per_campaign", cycles_ / n, measured_);
    put(m, "sim.delivered_flits_per_campaign", flits_ / n, measured_);
    put(m, "sim.host_ns_per_flit", flits_ > 0.0 ? sim_ns_ / flits_ : 0.0, measured_);
    put(m, "sim.replications_per_campaign", replications_ / n, measured_);
    put(m, "sim.networks_built_per_campaign", networks_ / n, measured_);
  }

 private:
  struct Cell {
    int kind;  ///< 0 BFT(3), 1 Mesh(3,3), 2 Hypercube(4), 3 BFT(5)
    bool hotspot;
    int lanes;
    bool documented;  ///< one of the 18 conformance cells with bounds
  };
  static constexpr int kWormFlits = 16;
  static constexpr double kLoads[2] = {0.2, 0.5};
  static constexpr double kBounds[2] = {0.10, 0.15};

  static core::SolveOptions solve_opts() {
    core::SolveOptions o;
    o.worm_flits = kWormFlits;
    return o;
  }
  static std::string label(const Cell& c) {
    static const char* const kKind[] = {"BFT(3)", "Mesh(3,3)", "Hypercube(4)", "BFT(5)"};
    return std::string(kKind[c.kind]) + (c.hotspot ? " hotspot" : " uniform") +
           " L" + std::to_string(c.lanes);
  }
  static traffic::TrafficSpec spec(const Cell& c) {
    return c.hotspot ? traffic::TrafficSpec::hotspot(0.1) : traffic::TrafficSpec::uniform();
  }
  /// One topology object per (kind, lanes): a SimNetwork snapshots lanes.
  const topo::Topology* topology(const Cell& c) {
    std::unique_ptr<topo::Topology>& t = topos_[{c.kind, c.lanes}];
    if (!t) {
      if (c.kind == 0) t = std::make_unique<topo::ButterflyFatTree>(3);
      else if (c.kind == 1) t = std::make_unique<topo::Mesh>(3, 3);
      else if (c.kind == 2) t = std::make_unique<topo::Hypercube>(4);
      else t = std::make_unique<topo::ButterflyFatTree>(5);
      t->set_uniform_lanes(c.lanes);
    }
    return t.get();
  }

  std::vector<Cell> cells_;
  std::map<std::pair<int, int>, std::unique_ptr<topo::Topology>> topos_;
  std::unique_ptr<harness::SimEngine> engine_;
  std::vector<double> baseline_sat_;
  double setup_topo_ms_ = 0.0, setup_model_ms_ = 0.0, setup_baseline_ms_ = 0.0;
  std::uint64_t campaigns_ = 0;
  double err_pct_ = 0.0, err_pct_max_ = 0.0, err_pct_large_ = 0.0;
  long measured_ = 0;
  double campaign_ms_ = 0.0, model_side_ms_ = 0.0, cycles_ = 0.0, flits_ = 0.0,
         sim_ns_ = 0.0, replications_ = 0.0, networks_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_workload(const std::string& name) {
  if (name == "fabric_scale") return std::make_unique<FabricScale>();
  if (name == "sim_crosscheck") return std::make_unique<SimCrosscheck>();
  return nullptr;
}

}  // namespace wormnet_bench
