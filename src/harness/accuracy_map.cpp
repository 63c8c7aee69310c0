#include "harness/accuracy_map.hpp"

#include <limits>
#include <utility>

#include "core/fattree_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/assert.hpp"

namespace wormnet::harness {

namespace {

constexpr double kNoBound = std::numeric_limits<double>::quiet_NaN();

AccuracyCell cell_of(const char* suite, std::string label, FabricKind fabric,
                     int size, int arity) {
  AccuracyCell c;
  c.suite = suite;
  c.label = std::move(label);
  c.fabric = fabric;
  c.size = size;
  c.arity = arity;
  return c;
}

std::vector<AccuracyCell> make_table() {
  std::vector<AccuracyCell> t;
  const OverloadProbe probe7{7, 5'000, 20'000};

  // uniform: topology × pattern × lanes at 20/50/80% of λ₀*.  Below 80%
  // every cell holds the 10% / 15% contract; the 80% bounds are measured
  // errors plus margin (EXPERIMENTS.md).
  struct Uniform {
    const char* name;
    FabricKind fabric;
    int size, arity;
    bool hotspot;
    int lanes;
    double bound80;
  };
  const Uniform uniform[] = {
      {"FatTree3", FabricKind::FatTree, 3, 2, false, 1, 0.20},
      {"FatTree3", FabricKind::FatTree, 3, 2, false, 2, 0.50},
      {"FatTree3", FabricKind::FatTree, 3, 2, false, 4, 0.50},
      {"FatTree3", FabricKind::FatTree, 3, 2, true, 1, 0.15},
      {"FatTree3", FabricKind::FatTree, 3, 2, true, 2, 0.42},
      {"FatTree3", FabricKind::FatTree, 3, 2, true, 4, 0.30},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, false, 1, 0.30},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, false, 2, 0.45},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, false, 4, 0.25},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, true, 1, 0.15},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, true, 2, 0.35},
      {"Mesh3ary3d", FabricKind::Mesh, 3, 3, true, 4, 0.35},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, false, 1, 0.33},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, false, 2, 0.45},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, false, 4, 0.28},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, true, 1, 0.20},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, true, 2, 0.42},
      {"Hypercube4", FabricKind::Hypercube, 4, 0, true, 4, 0.37},
  };
  for (const Uniform& u : uniform) {
    std::string label = u.name;
    label += u.hotspot ? "Hotspot10" : "Uniform";
    label += 'L';
    label += std::to_string(u.lanes);
    AccuracyCell c = cell_of("uniform", std::move(label), u.fabric, u.size, u.arity);
    c.lanes = u.lanes;
    if (u.hotspot) c.traffic = traffic::TrafficSpec::hotspot(0.1);
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(u.lanes);
    c.points = {{0.2, seed, 0.10}, {0.5, seed, 0.15}, {0.8, seed, u.bound80}};
    c.probe = probe7;
    t.push_back(std::move(c));
  }

  // hetero: BFT(2) with tier-1 links at 1/2 or 1/4 bandwidth × per-lane
  // buffers of 2, 8 or ∞ flits × 1 or 2 lanes.
  struct Hetero {
    double taper;
    int depth;  ///< 0: infinite
    int lanes;
    double bound80;
  };
  const Hetero hetero[] = {
      {0.5, 2, 1, 0.35},  {0.5, 2, 2, 0.55},  {0.5, 8, 1, 0.20},
      {0.5, 8, 2, 0.40},  {0.5, 0, 1, 0.20},  {0.5, 0, 2, 0.20},
      {0.25, 2, 1, 0.45}, {0.25, 2, 2, 0.45}, {0.25, 8, 1, 0.38},
      {0.25, 8, 2, 0.38}, {0.25, 0, 1, 0.33}, {0.25, 0, 2, 0.20},
  };
  for (std::size_t i = 0; i < std::size(hetero); ++i) {
    const Hetero& h = hetero[i];
    std::string label = h.taper == 0.5 ? "Taper2to1" : "Taper4to1";
    label += "Depth";
    label += h.depth == 0 ? std::string("Inf") : std::to_string(h.depth);
    label += 'L';
    label += std::to_string(h.lanes);
    AccuracyCell c = cell_of("hetero", std::move(label), FabricKind::FatTree, 2, 2);
    c.taper = h.taper;
    c.buffer_depth = h.depth == 0 ? util::kInfiniteBufferDepth : h.depth;
    c.lanes = h.lanes;
    const std::uint64_t seed = 4200 + i;
    c.points = {{0.2, seed, 0.10}, {0.5, seed, 0.15}, {0.8, seed, h.bound80}};
    c.probe = probe7;
    t.push_back(std::move(c));
  }

  // fault: BFT(2), untapered or 2:1, one failure, at 20% or 50% of the
  // DEGRADED model's λ₀*.
  std::uint64_t fault_seed = 9100;
  for (const double taper : {1.0, 0.5}) {
    for (const FaultKind fault : {FaultKind::UpLink, FaultKind::MidSwitch}) {
      for (const double frac : {0.2, 0.5}) {
        std::string label = taper == 1.0 ? "Taper1to1" : "Taper2to1";
        label += fault == FaultKind::UpLink ? "UpLink" : "MidSwitch";
        label += frac == 0.2 ? "Load20" : "Load50";
        AccuracyCell c = cell_of("fault", std::move(label), FabricKind::FatTree, 2, 2);
        c.taper = taper;
        c.fault = fault;
        c.points = {{frac, fault_seed++, frac == 0.2 ? 0.10 : 0.15}};
        t.push_back(std::move(c));
      }
    }
  }

  // bursty: batch and MMPP-2 injection, bursty-tuned model, 20% bound.
  std::uint64_t bursty_seed = 2000;
  for (const bool cube : {false, true}) {
    for (const bool batch : {true, false}) {
      std::string label = cube ? "Hypercube4" : "FatTree3";
      label += batch ? "Batch4" : "Mmpp2";
      AccuracyCell c = cube ? cell_of("bursty", std::move(label), FabricKind::Hypercube, 4, 0)
                            : cell_of("bursty", std::move(label), FabricKind::FatTree, 3, 2);
      c.arrivals = batch ? arrivals::ArrivalSpec::batch(4.0)
                         : arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0);
      c.points = {{0.2, bursty_seed, 0.20}, {0.5, bursty_seed, 0.20}};
      ++bursty_seed;
      t.push_back(std::move(c));
    }
  }

  // m_parent: BFT(2, m) against the closed-form M/G/m model at 55% load.
  // 12%: at high parent multiplicity on a small network the simulator's
  // one-cycle arbitration hand-off is a visible fraction of each (short)
  // queueing episode, which the model idealizes away.
  for (int m = 1; m <= 4; ++m) {
    AccuracyCell c = cell_of("m_parent", "FatTree2M" + std::to_string(m),
                             FabricKind::FatTree, 2, m);
    c.model = ModelKind::ClosedForm;
    c.warmup_cycles = 6'000;
    c.measure_cycles = 30'000;
    c.max_cycles = 400'000;
    c.points = {{0.55, 31 + static_cast<std::uint64_t>(m), 0.12}};
    t.push_back(std::move(c));
  }

  // paper: the closed-form fat-tree model and the general model on a
  // hypercube and a mesh, tolerance relative to the model's latency.
  for (const int levels : {2, 3}) {
    for (const int worm : {16, 32}) {
      std::string label = "FatTree" + std::to_string(levels);
      label += "Worm";
      label += std::to_string(worm);
      AccuracyCell c = cell_of("paper", std::move(label), FabricKind::FatTree, levels, 2);
      c.model = ModelKind::ClosedForm;
      c.worm_flits = worm;
      const std::uint64_t seed = 1234 + static_cast<std::uint64_t>(levels);
      c.points = {{0.25, seed, 0.05}, {0.5, seed, 0.05}, {0.7, seed, 0.20}};
      if (levels == 3 && worm == 16) c.probe = {5, 10'000, 30'000};
      t.push_back(std::move(c));
    }
  }
  AccuracyCell cube = cell_of("paper", "Hypercube4", FabricKind::Hypercube, 4, 0);
  cube.model = ModelKind::Collapsed;
  cube.points = {{0.3, 77, 0.15}, {0.6, 77, 0.15}};
  t.push_back(std::move(cube));
  AccuracyCell mesh = cell_of("paper", "Mesh4x2", FabricKind::Mesh, 4, 2);
  mesh.points = {{0.3, 99, 0.15}, {0.6, 99, 0.15}};
  t.push_back(std::move(mesh));
  // Injection wait and service against Eq. 25's components, not latency.
  AccuracyCell parts = cell_of("paper", "FatTree3Components", FabricKind::FatTree, 3, 2);
  parts.model = ModelKind::ClosedForm;
  parts.max_cycles = 400'000;
  parts.points = {{0.5, 6, kNoBound}};
  t.push_back(std::move(parts));
  return t;
}

std::unique_ptr<core::NetworkModel> build_model(const AccuracyCell& cell,
                                                const topo::Topology& topo) {
  if (cell.model == ModelKind::ClosedForm) {
    WORMNET_EXPECTS(cell.fabric == FabricKind::FatTree && cell.taper == 1.0 &&
                    cell.buffer_depth == util::kInfiniteBufferDepth &&
                    cell.fault == FaultKind::None && cell.arrivals.is_poisson());
    return std::make_unique<core::FatTreeModel>(core::FatTreeModelOptions{
        .levels = cell.size,
        .worm_flits = static_cast<double>(cell.worm_flits),
        .parents = cell.arity,
        .lanes = cell.lanes});
  }
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(cell.worm_flits);
  auto model = std::make_unique<core::GeneralModel>(
      cell.model == ModelKind::Dense
          ? core::build_traffic_model(topo, cell.traffic, opts)
          : core::build_traffic_model_collapsed(topo, cell.traffic, opts));
  if (!cell.arrivals.is_poisson()) model->set_injection_process(cell.arrivals);
  return model;
}

}  // namespace

const std::vector<AccuracyCell>& accuracy_cells() {
  static const std::vector<AccuracyCell> table = make_table();
  return table;
}

std::vector<AccuracyCell> accuracy_suite(std::string_view suite) {
  std::vector<AccuracyCell> out;
  for (const AccuracyCell& c : accuracy_cells())
    if (c.suite == suite) out.push_back(c);
  WORMNET_EXPECTS(!out.empty());
  return out;
}

const topo::Topology& AccuracyFabrics::of(const AccuracyCell& c) {
  Fabric& f = fabrics_[Key{c.fabric, c.size, c.arity, c.taper, c.buffer_depth,
                           c.lanes, c.fault}];
  if (f.base == nullptr) {
    topo::ButterflyFatTree* tree = nullptr;
    switch (c.fabric) {
      case FabricKind::FatTree: {
        auto fat_tree = std::make_unique<topo::ButterflyFatTree>(c.size, c.arity);
        tree = fat_tree.get();
        if (c.taper != 1.0) tree->set_tier_bandwidth(1, c.taper);
        f.base = std::move(fat_tree);
        break;
      }
      case FabricKind::Mesh:
        f.base = std::make_unique<topo::Mesh>(c.size, c.arity);
        break;
      case FabricKind::Hypercube:
        f.base = std::make_unique<topo::Hypercube>(c.size);
        break;
    }
    WORMNET_EXPECTS(tree != nullptr || (c.taper == 1.0 && c.fault == FaultKind::None));
    f.base->set_uniform_buffer_depth(c.buffer_depth);
    f.base->set_uniform_lanes(c.lanes);
    if (c.fault != FaultKind::None) {
      f.faults = std::make_unique<topo::FaultSet>(*f.base);
      if (c.fault == FaultKind::UpLink)
        f.faults->fail_link(tree->switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
      else
        f.faults->fail_switch(tree->switch_id(2, 0));
      f.view = std::make_unique<topo::FaultedTopology>(*f.base, *f.faults);
    }
  }
  return f.view != nullptr ? *f.view : *f.base;
}

SimCell probe_sim_cell(const AccuracyCell& cell, const topo::Topology& topo) {
  WORMNET_EXPECTS(cell.has_probe());
  SimCell sc;
  sc.topology = &topo;
  sc.cfg.arrivals = sim::ArrivalProcess::Overload;
  sc.cfg.worm_flits = cell.worm_flits;
  sc.cfg.seed = cell.probe.seed;
  sc.cfg.traffic = cell.traffic;
  sc.cfg.warmup_cycles = cell.probe.warmup_cycles;
  sc.cfg.measure_cycles = cell.probe.measure_cycles;
  sc.cfg.channel_stats = false;
  return sc;
}

std::vector<AccuracyRow> run_accuracy_map(const std::vector<AccuracyCell>& cells,
                                          SimEngine& engine) {
  AccuracyFabrics fabrics;
  std::vector<AccuracyRow> rows(cells.size());
  std::vector<SimCell> sims;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AccuracyCell& cell = cells[i];
    const topo::Topology& topo = fabrics.of(cell);
    const std::unique_ptr<core::NetworkModel> model = build_model(cell, topo);
    AccuracyRow& row = rows[i];
    row.cell = cell;
    row.model_name = model->name();
    row.saturation_rate = model->saturation_rate();
    for (const LoadPoint& load : cell.points) {
      AccuracyPoint& p = row.points.emplace_back();
      p.load = load;
      p.lambda0 = row.saturation_rate * load.frac;
      p.model = model->evaluate(p.lambda0);
      SimCell sc;
      sc.topology = &topo;
      sc.cfg.load_flits = p.lambda0 * cell.worm_flits;
      sc.cfg.worm_flits = cell.worm_flits;
      sc.cfg.seed = load.seed;
      sc.cfg.traffic = cell.traffic;
      sc.cfg.arrival_process = cell.arrivals;
      sc.cfg.warmup_cycles = cell.warmup_cycles;
      sc.cfg.measure_cycles = cell.measure_cycles;
      sc.cfg.max_cycles = cell.max_cycles;
      sc.cfg.channel_stats = false;
      sims.push_back(std::move(sc));
    }
  }
  for (const AccuracyCell& cell : cells)
    if (cell.has_probe()) sims.push_back(probe_sim_cell(cell, fabrics.of(cell)));

  const std::vector<SimCellResult> results = engine.run_cells(sims);
  std::size_t next = 0;
  for (AccuracyRow& row : rows)
    for (AccuracyPoint& p : row.points) p.sim = results[next++].runs.front();
  for (AccuracyRow& row : rows)
    if (row.cell.has_probe()) row.overload = results[next++].runs.front();
  return rows;
}

}  // namespace wormnet::harness
