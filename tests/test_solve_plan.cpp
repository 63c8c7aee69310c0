// Tests for core::SolvePlan (ctest label: unit): the λ₀-free solve set-up
// built once per model content.  A plan on a shared structure must answer
// exactly as a freshly built plan of the same model, for every tune axis;
// the cyclic (fixed-point) path must land on its pinned values; the plan's
// digest must be the model's content digest; building a plan must still
// reject an invalid graph; a model without injection classes solves but
// does not evaluate; and the latency and saturation answers, which read no
// solution rows, must equal what the full solve's rows give.
#include "core/general_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fattree_graph.hpp"
#include "core/saturation.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/hash.hpp"

namespace wormnet::core {
namespace {

/// Bitwise equality of two doubles (inf == inf, NaN == same NaN).
void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(util::double_bits(a), util::double_bits(b))
      << what << ": " << a << " vs " << b;
}

/// Every ChannelSolution field and the telemetry, bit for bit.
void expect_same_solve(const SolveResult& a, const SolveResult& b,
                       const std::string& tag) {
  EXPECT_EQ(a.stable, b.stable) << tag;
  EXPECT_EQ(a.converged, b.converged) << tag;
  EXPECT_EQ(a.iterations, b.iterations) << tag;
  expect_bits(a.telemetry.max_residual, b.telemetry.max_residual, tag + " residual");
  expect_bits(a.telemetry.max_utilization, b.telemetry.max_utilization,
              tag + " max utilization");
  EXPECT_EQ(a.telemetry.max_utilization_class, b.telemetry.max_utilization_class) << tag;
  EXPECT_EQ(a.telemetry.first_saturated_class, b.telemetry.first_saturated_class) << tag;
  EXPECT_STREQ(a.telemetry.saturation_cause, b.telemetry.saturation_cause) << tag;
  ASSERT_EQ(a.channels.size(), b.channels.size()) << tag;
  for (std::size_t id = 0; id < a.channels.size(); ++id) {
    const ChannelSolution& x = a.channels[id];
    const ChannelSolution& y = b.channels[id];
    const std::string at = tag + " class " + std::to_string(id);
    expect_bits(x.service_time, y.service_time, at + " service_time");
    expect_bits(x.wait, y.wait, at + " wait");
    expect_bits(x.utilization, y.utilization, at + " utilization");
    expect_bits(x.cb2, y.cb2, at + " cb2");
    expect_bits(x.ca2, y.ca2, at + " ca2");
    expect_bits(x.blocking, y.blocking, at + " blocking");
  }
}

void expect_same_estimate(const LatencyEstimate& a, const LatencyEstimate& b,
                          const std::string& tag) {
  EXPECT_EQ(a.stable, b.stable) << tag;
  EXPECT_EQ(a.status, b.status) << tag;
  expect_bits(a.latency, b.latency, tag + " latency");
  expect_bits(a.inj_wait, b.inj_wait, tag + " inj_wait");
  expect_bits(a.inj_service, b.inj_service, tag + " inj_service");
  expect_bits(a.mean_distance, b.mean_distance, tag + " mean_distance");
  expect_bits(a.unroutable_fraction, b.unroutable_fraction, tag + " unroutable");
}

struct ModelCase {
  std::string tag;
  GeneralModel model;
};

/// Dense BFT(3) uniform and hotspot, a 2:1-tapered BFT(3) with 4-flit
/// buffers, and the per-channel Mesh(4,2).
std::vector<ModelCase> model_cases() {
  std::vector<ModelCase> cases;
  const topo::ButterflyFatTree ft(3);
  cases.push_back({"bft3-uniform",
                   build_traffic_model(ft, traffic::TrafficSpec::uniform())});
  cases.push_back({"bft3-hotspot",
                   build_traffic_model(ft, traffic::TrafficSpec::hotspot(0.2, 5))});
  topo::ButterflyFatTree tapered(3);
  tapered.set_tier_bandwidth(1, 0.5);
  tapered.set_uniform_buffer_depth(4);
  cases.push_back({"bft3-tapered",
                   build_traffic_model(tapered, traffic::TrafficSpec::uniform())});
  const topo::Mesh mesh(4, 2);
  cases.push_back({"mesh4x4",
                   build_traffic_model(mesh, traffic::TrafficSpec::uniform())});
  return cases;
}

struct Tune {
  const char* axis;
  void (*apply)(GeneralModel&);
};

const Tune kTunes[] = {
    {"lanes", [](GeneralModel& m) { m.set_uniform_lanes(2); }},
    {"buffers", [](GeneralModel& m) { m.set_uniform_buffers(8); }},
    {"bandwidth",
     [](GeneralModel& m) {
       std::vector<double> bw(static_cast<std::size_t>(m.graph.size()));
       for (int id = 0; id < m.graph.size(); ++id)
         bw[static_cast<std::size_t>(id)] = m.graph.at(id).bandwidth * 1.5;
       m.set_channel_bandwidths(bw);
     }},
    {"load", [](GeneralModel& m) { m.scale_injection_rates(1.25); }},
    {"arrival",
     [](GeneralModel& m) {
       m.set_injection_process(arrivals::ArrivalSpec::batch(3.0));
     }},
};

TEST(SolvePlan, SharedStructureMatchesFreshPlan) {
  for (const ModelCase& c : model_cases()) {
    const SolvePlan resident(c.model);
    for (const Tune& tune : kTunes) {
      GeneralModel tuned = c.model;
      tune.apply(tuned);
      const SolvePlan fresh(tuned);
      const SolvePlan shared(tuned, resident.structure());
      ASSERT_EQ(shared.structure(), resident.structure());
      const std::string tag = c.tag + "/" + tune.axis;
      EXPECT_EQ(shared.digest(), fresh.digest()) << tag;
      const double sat = fresh.saturation_rate();
      ASSERT_GT(sat, 0.0) << tag;
      expect_bits(shared.saturation_rate(), sat, tag + " saturation");
      for (double frac : {0.0, 0.5, 0.99, 1.2}) {
        const std::string at = tag + " at " + std::to_string(frac) + " sat";
        expect_same_solve(shared.solve(frac * sat), fresh.solve(frac * sat), at);
        expect_same_estimate(shared.evaluate(frac * sat), fresh.evaluate(frac * sat), at);
      }
    }
  }
}

TEST(SolvePlan, OneShotWrappersAnswerAsThePlan) {
  const topo::ButterflyFatTree ft(2);
  const GeneralModel m = build_traffic_model(ft, traffic::TrafficSpec::hotspot(0.3, 1));
  const SolvePlan plan(m);
  const double sat = plan.saturation_rate();
  expect_bits(m.saturation_rate(), sat, "GeneralModel::saturation_rate");
  expect_bits(model_saturation_rate(m, m.opts), sat, "model_saturation_rate");
  for (double frac : {0.3, 0.9, 1.1}) {
    const std::string tag = "at " + std::to_string(frac) + " sat";
    expect_same_estimate(m.evaluate(frac * sat), plan.evaluate(frac * sat), tag);
    expect_same_estimate(model_latency(m, frac * sat, m.opts),
                         plan.evaluate(frac * sat), tag + " model_latency");
    expect_same_solve(m.solve(frac * sat), plan.solve(frac * sat), tag);
  }
}

/// The two-channel ring of test_general_model.cpp's cyclic case: a and b
/// feed each other and the ejection channel e with probability 1/2 each.
/// It has no injection classes.
GeneralModel ring_model(int& e, int& a, int& b) {
  GeneralModel model;
  model.opts.worm_flits = 8.0;
  ChannelGraph& g = model.graph;
  ChannelClass ej;
  ej.label = "eject";
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  e = g.add_channel(ej);
  ChannelClass ring;
  ring.label = "ring";
  ring.rate_per_link = 0.5;
  a = g.add_channel(ring);
  b = g.add_channel(ring);
  g.add_transition(a, b, 0.5, 0.5);
  g.add_transition(a, e, 0.5, 0.5);
  g.add_transition(b, a, 0.5, 0.5);
  g.add_transition(b, e, 0.5, 0.5);
  return model;
}

TEST(SolvePlan, CyclicGraphMatchesPinnedFixedPoint) {
  // Pinned from the per-call solver the plan replaced: the damped fixed
  // point lands on the same bits, iteration count and residual.
  int e = 0, a = 0, b = 0;
  const GeneralModel ring = ring_model(e, a, b);
  ASSERT_FALSE(ring.graph.acyclic());
  const SolvePlan plan(ring);

  const SolveResult low = plan.solve(0.004);
  EXPECT_TRUE(low.stable);
  EXPECT_TRUE(low.converged);
  EXPECT_EQ(low.iterations, 74);
  expect_bits(low.telemetry.max_residual, 0x1.cdp-41, "low residual");
  expect_bits(low.service_time(e), 8.0, "low x_e");
  expect_bits(low.service_time(a), 0x1.043fe6f478b99p+3, "low x_a");
  expect_bits(low.service_time(b), 0x1.043fe6f478c4ap+3, "low x_b");
  expect_bits(low.wait(e), 0x1.0ecf56be69c9p-3, "low w_e");
  expect_bits(low.wait(a), 0x1.1378f03dc33b6p-4, "low w_a");
  expect_bits(low.wait(b), 0x1.1378f03dc3536p-4, "low w_b");
  expect_bits(low.channels[static_cast<std::size_t>(b)].cb2, 0x1.1796aec534dc9p-12,
              "low cb2_b");
  expect_bits(low.channels[static_cast<std::size_t>(a)].blocking, 0x1.4p-1,
              "low blocking_a");

  const SolveResult mid = plan.solve(0.03);
  EXPECT_TRUE(mid.converged);
  EXPECT_EQ(mid.iterations, 90);
  expect_bits(mid.telemetry.max_residual, 0x1.efp-41, "mid residual");
  expect_bits(mid.service_time(a), 0x1.2ab984a35aec7p+3, "mid x_a");
  expect_bits(mid.service_time(b), 0x1.2ab984a35af78p+3, "mid x_b");
  expect_bits(mid.wait(a), 0x1.8d15a1e4aad72p-1, "mid w_a");
  expect_bits(mid.utilization(b), 0x1.1ec693d005687p-3, "mid u_b");

  // Past capacity the ejection bundle saturates first and the ring
  // inherits its infinite wait.
  const SolveResult over = plan.solve(0.2);
  EXPECT_FALSE(over.stable);
  EXPECT_FALSE(over.converged);
  EXPECT_EQ(over.iterations, 1);
  EXPECT_EQ(over.telemetry.first_saturated_class, e);
  EXPECT_STREQ(over.telemetry.saturation_cause, "occupancy");
  expect_bits(over.telemetry.max_utilization, 0x1.999999999999ap+0, "over max u");

  // The one-shot wrapper is the same loop.
  expect_same_solve(ring.solve(0.004), low, "one-shot");
}

/// Eq. 1 averaged over `net`'s injection classes from a full solve's rows,
/// with its batch residual and unroutable fraction applied: the latency
/// answer as it was computed from SolveResult rows, verbatim.
LatencyEstimate estimate_from_rows(const SolveResult& solution,
                                   const GeneralModel& net) {
  const std::vector<double>& weights = net.injection_class_weights;
  LatencyEstimate est;
  est.mean_distance = net.mean_distance;
  est.stable = solution.stable;
  double wait_sum = 0.0;
  double service_sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < net.injection_classes.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const int id = net.injection_classes[i];
    wait_sum += w * solution.wait(id);
    service_sum += w * solution.service_time(id);
    weight_sum += w;
  }
  est.inj_wait = wait_sum / weight_sum;
  est.inj_service = service_sum / weight_sum;
  est.latency = est.inj_wait + est.inj_service + net.mean_distance - 1.0;
  if (!std::isfinite(est.latency)) est.stable = false;
  if (!solution.converged)
    est.status = SolveStatus::Infeasible;
  else if (!est.stable)
    est.status = SolveStatus::Saturated;
  const double inf = std::numeric_limits<double>::infinity();
  if (std::isnan(est.inj_wait)) est.inj_wait = inf;
  if (std::isnan(est.inj_service)) est.inj_service = inf;
  if (std::isnan(est.latency)) est.latency = inf;
  // The batch residual, then the unroutable fraction.
  const double residual = net.injection_batch_residual;
  if (residual > 0.0 && std::isfinite(est.inj_service)) {
    const double extra = residual * est.inj_service;
    est.inj_wait += extra;
    est.latency += extra;
  }
  est.unroutable_fraction = net.unroutable_fraction;
  if (net.unroutable_fraction > 0.0 && est.status == SolveStatus::Ok)
    est.status = SolveStatus::Disconnected;
  return est;
}

/// A derangement drawn from `rng` (no processor sends to itself).
std::vector<int> derangement(int n, std::mt19937_64& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<int> dest(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    dest[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        order[static_cast<std::size_t>((i + 1) % n)];
  return dest;
}

/// The model inputs of Saturation.BracketedSearchMatchesPlainBisection
/// (test_saturation.cpp), the cyclic ring injecting at class a, and a
/// batch-arrival tune (C_a² ≠ 1 and a positive batch residual).
std::vector<ModelCase> row_free_cases() {
  std::vector<ModelCase> cases;
  const auto uniform = traffic::TrafficSpec::uniform();
  cases.push_back({"dense BFT(4) uniform",
                   build_traffic_model(topo::ButterflyFatTree(4), uniform)});
  {
    topo::ButterflyFatTree tapered(3);
    tapered.set_tier_bandwidth(1, 0.5);
    tapered.set_uniform_lanes(2);
    tapered.set_uniform_buffer_depth(2);
    cases.push_back({"BFT(3) 2:1 taper L=2 B=2", build_traffic_model(tapered, uniform)});
  }
  cases.push_back({"BFT(3) hotspot",
                   build_traffic_model(topo::ButterflyFatTree(3),
                                       traffic::TrafficSpec::hotspot(0.2, 5))});
  cases.push_back({"Mesh(4,4) uniform", build_traffic_model(topo::Mesh(4, 2), uniform)});
  cases.push_back({"Hypercube(6) bit-complement",
                   build_traffic_model(topo::Hypercube(6),
                                       traffic::TrafficSpec::bit_complement())});
  cases.push_back({"BFT(3) m=4",
                   build_traffic_model(topo::ButterflyFatTree(3, 4), uniform)});
  {
    const topo::ButterflyFatTree ft(3);
    topo::FaultSet faults(ft);
    faults.fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
    cases.push_back({"BFT(3) one failed link",
                     build_traffic_model(topo::FaultedTopology(ft, faults), uniform)});
  }
  {
    const topo::ButterflyFatTree ft(3);
    std::mt19937_64 rng(2718);
    std::vector<int> dest = derangement(ft.num_processors(), rng);
    RetunableTrafficModel resident(ft, traffic::TrafficSpec::permutation(dest));
    std::swap(dest[3], dest[40]);
    resident.retune_traffic(traffic::TrafficSpec::permutation(dest));
    cases.push_back({"BFT(3) retuned derangement", resident.model()});
  }
  {
    int e = 0, a = 0, b = 0;
    GeneralModel ring = ring_model(e, a, b);
    ring.injection_classes = {a};
    cases.push_back({"cyclic ring", std::move(ring)});
  }
  {
    GeneralModel batch = build_traffic_model(topo::ButterflyFatTree(3), uniform);
    batch.set_injection_process(arrivals::ArrivalSpec::batch(3.0));
    cases.push_back({"BFT(3) batch arrivals", std::move(batch)});
  }
  return cases;
}

TEST(SolvePlan, RowFreeAnswersMatchTheFullSolve) {
  for (const ModelCase& c : row_free_cases()) {
    const SolvePlan plan(c.model);
    const double sat = plan.saturation_rate();
    ASSERT_GT(sat, 0.0) << c.tag;
    // The saturation answer is the bisection over evaluate's x̄_inj.
    expect_bits(sat,
                find_saturation_rate(
                    [&plan](double l) { return plan.evaluate(l).inj_service; },
                    1.0 / plan.worm_flits()),
                c.tag + " saturation");
    std::vector<double> loads;
    for (double frac : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0, 1.2}) loads.push_back(frac * sat);
    loads.push_back(2.0 / plan.worm_flits());
    for (double lambda0 : loads) {
      const std::string at = c.tag + " at " + std::to_string(lambda0);
      expect_same_estimate(plan.evaluate(lambda0),
                           estimate_from_rows(plan.solve(lambda0), c.model), at);
    }
  }
}

TEST(SolvePlan, DigestEqualsContentDigest) {
  std::vector<ModelCase> cases = model_cases();
  for (const ModelCase& c : cases) {
    const SolvePlan plan(c.model);
    EXPECT_EQ(plan.digest(), c.model.content_digest()) << c.tag;
    EXPECT_EQ(plan.digest(), plan.digest()) << c.tag;  // kept, not recomputed differently
    for (const Tune& tune : kTunes) {
      GeneralModel tuned = c.model;
      tune.apply(tuned);
      const std::string tag = c.tag + "/" + tune.axis;
      const SolvePlan shared(tuned, plan.structure());
      const SolvePlan fresh(tuned);
      EXPECT_EQ(shared.digest(), tuned.content_digest()) << tag;
      EXPECT_NE(shared.digest(), plan.digest()) << tag;
      // Equal digests give bit-equal answers across shared and fresh plans.
      ASSERT_EQ(shared.digest(), fresh.digest()) << tag;
      const double lambda0 = 0.5 * plan.saturation_rate();
      expect_same_estimate(shared.evaluate(lambda0), fresh.evaluate(lambda0), tag);
    }
  }
  // Different wiring, different digest; the same content rebuilt, the same.
  EXPECT_NE(SolvePlan(cases[0].model).digest(), SolvePlan(cases[1].model).digest());
  const topo::ButterflyFatTree ft(3);
  const GeneralModel rebuilt = build_traffic_model(ft, traffic::TrafficSpec::uniform());
  EXPECT_EQ(SolvePlan(rebuilt).digest(), SolvePlan(cases[0].model).digest());
  // The digest covers the options the plan solves under.
  SolveOptions longer = cases[0].model.opts;
  longer.worm_flits = 32.0;
  EXPECT_NE(SolvePlan(cases[0].model, longer).digest(),
            SolvePlan(cases[0].model).digest());
}

TEST(ContractDeath, SolvePlanRejectsInvalidGraph) {
  // Weights of a non-terminal class that do not sum to 1: validate() names
  // the class, and building a plan still aborts on it.
  GeneralModel bad;
  ChannelClass ej;
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  const int e = bad.graph.add_channel(ej);
  ChannelClass inj;
  inj.rate_per_link = 1.0;
  const int i = bad.graph.add_channel(inj);
  bad.graph.add_transition(i, e, 0.5, 0.5);
  bad.injection_classes = {i};
  ASSERT_FALSE(bad.graph.validate().empty());
  EXPECT_DEATH(SolvePlan{bad}, "precondition");
  EXPECT_DEATH(SolvePlan(bad, bad.opts), "precondition");
  EXPECT_DEATH(bad.evaluate(0.01), "precondition");

  // An attribute the validation rejects on a plan that shares a valid
  // structure: the attribute half re-checks it.
  const GeneralModel good = build_fattree_collapsed(2);
  const SolvePlan plan(good);
  GeneralModel broken = good;
  broken.graph.mutable_at(0).buffer_depth = 0;
  ASSERT_FALSE(broken.graph.validate().empty());
  EXPECT_DEATH(SolvePlan(broken, plan.structure()), "precondition");
}

TEST(ContractDeath, ModelWithoutInjectionClassesSolvesButDoesNotEvaluate) {
  // A hand-built graph with no injection classes is a valid model to solve;
  // only the latency average over injection classes needs them.
  int e = 0, a = 0, b = 0;
  const GeneralModel ring = ring_model(e, a, b);
  ASSERT_TRUE(ring.injection_classes.empty());
  const SolveResult res = ring.solve(0.004);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.stable);
  EXPECT_DEATH(ring.evaluate(0.004), "precondition");
  EXPECT_DEATH(SolvePlan(ring).evaluate(0.004), "precondition");
}

}  // namespace
}  // namespace wormnet::core
