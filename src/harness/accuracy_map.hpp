// wormnet/harness/accuracy_map.hpp
//
// The accuracy map: every model-vs-simulation cell the repository checks,
// as one table, and one runner that evaluates any slice of it as one
// campaign.
//
// The paper's central claim is that the model tracks flit-level simulation
// "very closely over a wide range of load rate".  Each cell of the table is
// one configuration — a topology recipe, a model kind, a traffic pattern
// and an arrival process — with the load points it is checked at (each a
// fraction of the cell's own model saturation λ₀*, a simulator seed and the
// relative latency bound its suite asserts) and, optionally, a closed-loop
// overload probe of the simulator's saturation throughput.  Cells carry a
// suite tag: each conformance test reads its suite's slice and keeps its
// own assertions, and bench/accuracy_map prints the whole table.
//
// The runner builds each distinct live topology once (a SimNetwork
// snapshots lanes and link attributes, so each recipe needs its own
// object), evaluates every model through core::NetworkModel, and runs every
// load point and probe as one SimEngine campaign.  Seeds and windows are the
// cells' own, so each row is bit-identical to simulating the cell by hand.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/network_model.hpp"
#include "harness/sim_engine.hpp"
#include "sim/metrics.hpp"
#include "topo/fault.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic_spec.hpp"
#include "util/math.hpp"

namespace wormnet::harness {

enum class FabricKind { FatTree, Mesh, Hypercube };

/// The single failure a fault cell injects into its BFT(levels, 2).
enum class FaultKind {
  None,
  UpLink,     ///< level-1 switch 0 loses its first parent link
  MidSwitch,  ///< level-2 switch 0 fails wholesale
};

/// Which analytical model a cell is checked against.
enum class ModelKind {
  ClosedForm,  ///< core::FatTreeModel (§3); fat-trees without attributes
  Dense,       ///< core::build_traffic_model
  Collapsed,   ///< core::build_traffic_model_collapsed
};

/// One simulated latency point of a cell.
struct LoadPoint {
  double frac = 0.0;       ///< fraction of the cell's model λ₀*
  std::uint64_t seed = 0;  ///< simulator seed
  double bound = 0.0;      ///< relative latency tolerance (NaN: none)
};

/// A closed-loop saturation probe (sim::ArrivalProcess::Overload).
struct OverloadProbe {
  std::uint64_t seed = 0;
  long warmup_cycles = 0;
  long measure_cycles = 0;  ///< 0: the cell has no probe
};

struct AccuracyCell {
  std::string suite;  ///< the conformance suite that asserts on the cell
  std::string label;  ///< unique within the suite; names the test case
  // Topology recipe.
  FabricKind fabric = FabricKind::FatTree;
  int size = 2;        ///< fat-tree levels, mesh radix or hypercube dimension
  int arity = 2;       ///< fat-tree parent count m or mesh dimension count
  double taper = 1.0;  ///< fat-tree tier-1 link bandwidth (1: untapered)
  int buffer_depth = util::kInfiniteBufferDepth;
  int lanes = 1;
  FaultKind fault = FaultKind::None;
  // Model and workload.
  ModelKind model = ModelKind::Dense;
  int worm_flits = 16;
  traffic::TrafficSpec traffic = traffic::TrafficSpec::uniform();
  arrivals::ArrivalSpec arrivals = arrivals::ArrivalSpec::poisson();
  // Windows of the latency runs, shared by every point.
  long warmup_cycles = 8'000;
  long measure_cycles = 40'000;
  long max_cycles = 600'000;
  std::vector<LoadPoint> points;
  OverloadProbe probe;

  bool has_probe() const { return probe.measure_cycles > 0; }
};

/// The whole table, suite by suite: 127 load points and 31 overload probes.
const std::vector<AccuracyCell>& accuracy_cells();

/// The cells tagged `suite`, in table order.  Precondition: there is one.
std::vector<AccuracyCell> accuracy_suite(std::string_view suite);

/// Owns one live topology per distinct recipe (for a fault cell, the
/// base fabric, its FaultSet and the FaultedTopology view over both).
class AccuracyFabrics {
 public:
  /// The cell's topology, built on first request; lives as long as this.
  const topo::Topology& of(const AccuracyCell& cell);

 private:
  struct Fabric {
    std::unique_ptr<topo::Topology> base;
    std::unique_ptr<topo::FaultSet> faults;
    std::unique_ptr<topo::FaultedTopology> view;
  };
  using Key = std::tuple<FabricKind, int, int, double, int, int, FaultKind>;
  std::map<Key, Fabric> fabrics_;
};

/// The cell's overload probe as a campaign cell over `topo`.
/// Precondition: cell.has_probe().
SimCell probe_sim_cell(const AccuracyCell& cell, const topo::Topology& topo);

/// One load point's outcome.
struct AccuracyPoint {
  LoadPoint load;
  double lambda0 = 0.0;  ///< load.frac · λ₀*, messages/cycle/PE
  core::LatencyEstimate model;
  sim::SimResult sim;
};

/// One cell's outcome.
struct AccuracyRow {
  AccuracyCell cell;
  std::string model_name;
  double saturation_rate = 0.0;       ///< the model's λ₀*
  std::vector<AccuracyPoint> points;  ///< one per cell.points, same order
  sim::SimResult overload;            ///< the probe's run (default if none)
};

/// Evaluate `cells`: models serially, then every load point and probe as
/// one campaign on `engine`.  One row per cell, same order.
std::vector<AccuracyRow> run_accuracy_map(const std::vector<AccuracyCell>& cells,
                                          SimEngine& engine);

}  // namespace wormnet::harness
