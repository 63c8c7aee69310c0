// wormnet.hpp — umbrella header for the wormnet library.
//
// wormnet reproduces Greenberg & Guan, "An Improved Analytical Model for
// Wormhole Routed Networks with Application to Butterfly Fat-Trees"
// (ICPP 1997):
//
//  * wormnet::queueing — M/G/1, Hokstad M/G/2, generalized M/G/m waits with
//    the wormhole variance and blocking-probability corrections (Eq. 4-10),
//    plus the Allen–Cunneen G/G/m extension for bursty arrivals;
//  * wormnet::arrivals — message arrival processes (Poisson, deterministic,
//    batch, MMPP-2/ON-OFF, trace) with closed-form C_a², shared by model
//    and simulator;
//  * wormnet::topo     — butterfly fat-tree, hypercube and mesh topologies,
//    plus the fault layer (FaultSet / FaultedTopology degraded views);
//  * wormnet::traffic  — destination distributions (TrafficSpec pattern
//    catalog + arbitrary TrafficMatrix), shared by model and simulator;
//  * wormnet::core     — the paper's analytical model: the general
//    channel-graph solver (§2), the closed-form fat-tree model (§3),
//    saturation throughput (Eq. 26), and the traffic-aware route-enumeration
//    builder (any topology x any TrafficSpec);
//  * wormnet::sim      — a flit-level wormhole simulator (the validation
//    substrate for every experiment);
//  * wormnet::harness  — load sweeps and model-vs-simulation comparisons;
//  * wormnet::obs      — observability: metric registry (counters / gauges /
//    histograms with JSON, CSV and Prometheus exporters), Chrome trace-event
//    spans, solve/sim telemetry publishers and the pluggable log sink;
//  * wormnet::util     — RNG, statistics, tables, CLI and thread pool.
//
// See README.md for a quickstart and DESIGN.md for the architecture.
#pragma once

#include "arrivals/arrival_process.hpp" // IWYU pragma: export
#include "core/channel_graph.hpp"      // IWYU pragma: export
#include "core/fattree_graph.hpp"      // IWYU pragma: export
#include "core/fattree_model.hpp"      // IWYU pragma: export
#include "core/general_model.hpp"      // IWYU pragma: export
#include "core/network_model.hpp"      // IWYU pragma: export
#include "core/saturation.hpp"         // IWYU pragma: export
#include "core/traffic_model.hpp"      // IWYU pragma: export
#include "harness/experiment.hpp"      // IWYU pragma: export
#include "harness/query_engine.hpp"    // IWYU pragma: export
#include "harness/sim_engine.hpp"      // IWYU pragma: export
#include "harness/sweep_engine.hpp"    // IWYU pragma: export
#include "obs/adapters.hpp"            // IWYU pragma: export
#include "obs/log_sink.hpp"            // IWYU pragma: export
#include "obs/metrics.hpp"             // IWYU pragma: export
#include "obs/trace.hpp"               // IWYU pragma: export
#include "queueing/channel_solver.hpp" // IWYU pragma: export
#include "queueing/queueing.hpp"       // IWYU pragma: export
#include "sim/config.hpp"              // IWYU pragma: export
#include "sim/metrics.hpp"             // IWYU pragma: export
#include "sim/network.hpp"             // IWYU pragma: export
#include "sim/simulator.hpp"           // IWYU pragma: export
#include "sim/traffic.hpp"             // IWYU pragma: export
#include "topo/butterfly_fattree.hpp"  // IWYU pragma: export
#include "topo/channels.hpp"           // IWYU pragma: export
#include "topo/fault.hpp"              // IWYU pragma: export
#include "topo/graph_checks.hpp"       // IWYU pragma: export
#include "topo/hypercube.hpp"          // IWYU pragma: export
#include "topo/mesh.hpp"               // IWYU pragma: export
#include "topo/topology.hpp"           // IWYU pragma: export
#include "traffic/traffic_matrix.hpp"  // IWYU pragma: export
#include "traffic/traffic_spec.hpp"    // IWYU pragma: export
#include "util/cli.hpp"                // IWYU pragma: export
#include "util/histogram.hpp"          // IWYU pragma: export
#include "util/math.hpp"               // IWYU pragma: export
#include "util/rng.hpp"                // IWYU pragma: export
#include "util/stats.hpp"              // IWYU pragma: export
#include "util/table.hpp"              // IWYU pragma: export
