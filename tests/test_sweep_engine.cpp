// Tests for the SweepEngine: parallel/serial bitwise identity, memoization,
// saturation search, and the polymorphic NetworkModel surface it drives.
#include "harness/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fattree_graph.hpp"
#include "core/fattree_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"

namespace wormnet::harness {
namespace {

std::vector<double> test_lambdas(const core::NetworkModel& model) {
  const double sat = model.saturation_rate();
  std::vector<double> lambdas;
  for (int i = 1; i <= 24; ++i) lambdas.push_back(sat * 1.1 * i / 24);
  return lambdas;  // spans stable region and past saturation
}

TEST(SweepEngine, ParallelSweepBitwiseIdenticalToSerial) {
  // The acceptance criterion of the refactor: a parallel sweep on >= 4
  // threads produces BITWISE-identical output to the serial path.
  const core::FatTreeModel model({.levels = 4, .worm_flits = 16.0});
  const std::vector<double> lambdas = test_lambdas(model);

  SweepEngine parallel({/*threads=*/4, /*parallel=*/true});
  SweepEngine serial({/*threads=*/0, /*parallel=*/false});
  EXPECT_EQ(parallel.threads(), 4u);
  EXPECT_EQ(serial.threads(), 1u);

  const auto pa = parallel.sweep_lambda(model, lambdas);
  const auto se = serial.sweep_lambda(model, lambdas);
  ASSERT_EQ(pa.size(), se.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].lambda0, se[i].lambda0);
    EXPECT_EQ(pa[i].load_flits, se[i].load_flits);
    EXPECT_EQ(pa[i].est.stable, se[i].est.stable);
    // Bitwise: exact double equality, including inf past saturation.
    EXPECT_EQ(pa[i].est.latency, se[i].est.latency) << "i=" << i;
    EXPECT_EQ(pa[i].est.inj_wait, se[i].est.inj_wait) << "i=" << i;
    EXPECT_EQ(pa[i].est.inj_service, se[i].est.inj_service) << "i=" << i;
  }
}

TEST(SweepEngine, ParallelSweepIdenticalOnGeneralModel) {
  core::GeneralModel net = core::build_traffic_model_collapsed(
      topo::Hypercube(6), traffic::TrafficSpec::uniform());
  const std::vector<double> lambdas = test_lambdas(net);
  SweepEngine parallel({4, true});
  SweepEngine serial({0, false});
  const auto pa = parallel.sweep_lambda(net, lambdas);
  const auto se = serial.sweep_lambda(net, lambdas);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].est.latency, se[i].est.latency) << "i=" << i;
  }
}

TEST(SweepEngine, MemoizationSkipsRepeatedEvaluations) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  SweepEngine engine;
  const std::vector<double> lambdas{0.001, 0.002, 0.003, 0.002, 0.001};

  const auto first = engine.sweep_lambda(model, lambdas);
  // 3 unique points evaluated; the 2 duplicates resolved from them.
  EXPECT_EQ(engine.cache_size(), 3u);
  const std::uint64_t misses = engine.cache_misses();

  const auto second = engine.sweep_lambda(model, lambdas);
  EXPECT_EQ(engine.cache_misses(), misses);  // no new evaluations
  EXPECT_GE(engine.cache_hits(), 5u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].est.latency, second[i].est.latency);
  }
  // Duplicate inputs resolve to identical results within one batch too.
  EXPECT_EQ(first[1].est.latency, first[3].est.latency);
  EXPECT_EQ(first[0].est.latency, first[4].est.latency);
}

TEST(SweepEngine, MemoizationSeparatesModels) {
  // Two live models with different configurations must not share entries.
  const core::FatTreeModel a({.levels = 3, .worm_flits = 16.0});
  const core::FatTreeModel b({.levels = 4, .worm_flits = 16.0});
  SweepEngine engine;
  const double la = engine.evaluate(a, 0.002).latency;
  const double lb = engine.evaluate(b, 0.002).latency;
  EXPECT_NE(la, lb);
  EXPECT_EQ(engine.cache_size(), 2u);
  // And re-reads hit the right entries.
  EXPECT_EQ(engine.evaluate(a, 0.002).latency, la);
  EXPECT_EQ(engine.evaluate(b, 0.002).latency, lb);
}

TEST(SweepEngine, AblationFlipOnLiveModelMissesCache) {
  // Flipping an interface-visible switch on a cached model must MISS (the
  // key covers worm length + ablation), not return the stale estimate.
  core::GeneralModel net = core::build_fattree_collapsed(3);
  net.opts.worm_flits = 16.0;
  SweepEngine engine;
  const double lambda0 = net.saturation_rate() * 0.8;
  const double with = engine.evaluate(net, lambda0).latency;
  net.opts.ablation.blocking_correction = false;
  const double without = engine.evaluate(net, lambda0).latency;
  EXPECT_NE(with, without);
  EXPECT_EQ(engine.cache_size(), 2u);
  net.opts.worm_flits = 32.0;
  engine.evaluate(net, lambda0);
  EXPECT_EQ(engine.cache_size(), 3u);
}

TEST(SweepEngine, AblatedTwinNeverSharesCacheEntries) {
  // Every remaining ablation switch is part of the content digest: a twin
  // differing in one switch hashes differently, and a shared engine warmed
  // on the original returns the twin's own answer, never the original's.
  topo::ButterflyFatTree ft(2);
  ft.set_tier_bandwidth(1, 0.5);  // tapered: link attributes in play too
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel tapered =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);
  const core::FatTreeModel closed({.levels = 3, .worm_flits = 16.0});

  SweepEngine engine;
  const auto expect_separate = [&](const core::NetworkModel& base,
                                   const core::NetworkModel& twin,
                                   const char* what) {
    EXPECT_NE(twin.content_digest(), base.content_digest()) << what;
    const double lambda0 = 0.5 * base.saturation_rate();
    const double own_base = base.evaluate(lambda0).latency;
    const double own_twin = twin.evaluate(lambda0).latency;
    ASSERT_NE(own_base, own_twin) << what << ": the flip must matter here";
    EXPECT_EQ(engine.evaluate(base, lambda0).latency, own_base) << what;
    EXPECT_EQ(engine.evaluate(twin, lambda0).latency, own_twin) << what;
  };
  using queueing::AblationOptions;
  const std::pair<bool AblationOptions::*, const char*> fields[] = {
      {&AblationOptions::multi_server, "multi_server"},
      {&AblationOptions::blocking_correction, "blocking_correction"},
      {&AblationOptions::erratum_2lambda, "erratum_2lambda"}};
  for (const auto& [field, what] : fields) {
    core::GeneralModel general_twin = tapered;
    general_twin.opts.ablation.*field = !(tapered.opts.ablation.*field);
    expect_separate(tapered, general_twin, what);

    core::FatTreeModelOptions fo = closed.options();
    fo.ablation.*field = !(fo.ablation.*field);
    expect_separate(closed, core::FatTreeModel(fo), what);
  }
}

TEST(SweepEngine, IdenticalContentSharesCacheEntries) {
  // The content-keyed cache: two distinct model OBJECTS with identical
  // configuration share entries — the second evaluation is a pure hit.
  const core::FatTreeModel a({.levels = 3, .worm_flits = 16.0});
  const core::FatTreeModel b({.levels = 3, .worm_flits = 16.0});
  ASSERT_EQ(a.content_digest(), b.content_digest());
  SweepEngine engine;
  const double la = engine.evaluate(a, 0.002).latency;
  const std::uint64_t misses = engine.cache_misses();
  EXPECT_EQ(engine.evaluate(b, 0.002).latency, la);
  EXPECT_EQ(engine.cache_misses(), misses);
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST(SweepEngine, RebuiltModelHitsWarmCacheAfterOriginalDies) {
  // The old address-keyed footgun, inverted into a feature: destroy the
  // model, rebuild an identical one (possibly at a recycled address), and
  // the warm cache serves it.
  SweepEngine engine;
  double first = 0.0;
  {
    const core::GeneralModel net = core::build_fattree_collapsed(3);
    first = engine.evaluate(net, 0.002).latency;
  }
  const std::uint64_t misses = engine.cache_misses();
  const core::GeneralModel again = core::build_fattree_collapsed(3);
  EXPECT_EQ(engine.evaluate(again, 0.002).latency, first);
  EXPECT_EQ(engine.cache_misses(), misses);
}

TEST(SweepEngine, GraphMutationOnLiveGeneralModelMissesCache) {
  // GeneralModel's digest covers the channel graph itself, so state the old
  // interface-level key could not see — an edited rate, a lane retune — now
  // misses instead of serving the stale estimate.
  core::GeneralModel net = core::build_fattree_collapsed(3);
  SweepEngine engine;
  const double lambda0 = net.saturation_rate() * 0.7;
  const double before = engine.evaluate(net, lambda0).latency;
  net.set_uniform_lanes(4);
  const double lanes4 = engine.evaluate(net, lambda0).latency;
  EXPECT_NE(before, lanes4);
  net.scale_injection_rates(1.5);
  engine.evaluate(net, lambda0);
  EXPECT_EQ(engine.cache_size(), 3u);
}

TEST(SweepEngine, SaturationMatchesModelsOwnSolver) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  SweepEngine engine;
  // Same Eq. 26 bisection, same evaluations: identical result.
  EXPECT_DOUBLE_EQ(engine.saturation_rate(model), model.saturation_rate());
  EXPECT_DOUBLE_EQ(engine.saturation_load(model), model.saturation_load());
  // Running it again is pure cache.
  const std::uint64_t misses = engine.cache_misses();
  engine.saturation_rate(model);
  EXPECT_EQ(engine.cache_misses(), misses);
}

TEST(SweepEngine, SweepLoadConvertsUnits) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 32.0});
  SweepEngine engine;
  const auto points = engine.sweep_load(model, {0.032});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].load_flits, 0.032);
  EXPECT_DOUBLE_EQ(points[0].lambda0, 0.001);
  EXPECT_EQ(points[0].est.latency, model.evaluate(0.032 / 32.0).latency);
}

TEST(SweepEngine, SaturationFractionSweepBracketsTheKnee) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  SweepEngine engine;
  const auto points =
      engine.sweep_saturation_fractions(model, {0.5, 0.95, 1.05});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[0].est.stable);
  EXPECT_TRUE(points[1].est.stable);
  EXPECT_FALSE(points[2].est.stable);
  EXPECT_GT(points[1].est.latency, points[0].est.latency);
}

TEST(SweepEngine, DrivesModelsThroughTheInterface) {
  // The engine only sees core::NetworkModel; closed-form and graph-backed
  // implementations behave identically behind it.
  const core::FatTreeModel closed({.levels = 3, .worm_flits = 16.0});
  core::GeneralModel graph = core::build_fattree_collapsed(3);
  graph.opts.worm_flits = 16.0;
  const core::NetworkModel* models[] = {&closed, &graph};
  SweepEngine engine;
  double latencies[2];
  for (int i = 0; i < 2; ++i)
    latencies[i] = engine.evaluate(*models[i], 0.002).latency;
  EXPECT_NEAR(latencies[0], latencies[1], 1e-9 * latencies[0]);
  EXPECT_EQ(graph.name(), "collapsed-fattree(n=3,m=2)");
  EXPECT_EQ(closed.name(), "butterfly-fattree(n=3,m=2)");
  EXPECT_TRUE(closed.ablation().multi_server);
}

TEST(SweepEngine, ClearCacheForgetsEverything) {
  const core::FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  SweepEngine engine;
  engine.evaluate(model, 0.01);
  EXPECT_EQ(engine.cache_size(), 1u);
  engine.clear_cache();
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(SweepEngine, FamilySweepWalksTheHotspotAxis) {
  // The pattern-sweep entry point: a hotspot-fraction axis of traffic-aware
  // fat-tree models.  Saturation must fall monotonically as the fraction
  // grows (the hotspot ejection channel binds harder and harder), each
  // member carries its own curve, and the uniform member (f=0) agrees with
  // the plain uniform builder.
  topo::ButterflyFatTree ft(2);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  SweepEngine engine;
  const std::vector<double> fractions{0.25, 0.5, 0.75};
  const std::vector<FamilyMember> family = engine.sweep_family(
      [&](double f) {
        return std::make_unique<core::GeneralModel>(
            core::build_traffic_model(ft, traffic::TrafficSpec::hotspot(f), opts));
      },
      {0.0, 0.05, 0.15, 0.3}, fractions);
  ASSERT_EQ(family.size(), 4u);
  for (std::size_t i = 0; i < family.size(); ++i) {
    const FamilyMember& member = family[i];
    EXPECT_GT(member.saturation_rate, 0.0);
    ASSERT_EQ(member.points.size(), fractions.size());
    for (std::size_t j = 0; j < fractions.size(); ++j) {
      EXPECT_TRUE(member.points[j].est.stable);
      EXPECT_NEAR(member.points[j].lambda0,
                  member.saturation_rate * fractions[j], 1e-12);
    }
    if (i > 0) {
      EXPECT_LT(member.saturation_rate, family[i - 1].saturation_rate);
    }
  }
  const core::GeneralModel uniform = core::build_traffic_model(
      ft, traffic::TrafficSpec::uniform(), opts);
  EXPECT_NEAR(family[0].saturation_rate, engine.saturation_rate(uniform), 1e-12);
}

TEST(SweepEngine, MemoizeOffAlwaysReevaluates) {
  const core::FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  SweepEngine engine({0, true, /*memoize=*/false});
  engine.evaluate(model, 0.01);
  engine.evaluate(model, 0.01);
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.cache_hits(), 0u);
}

}  // namespace
}  // namespace wormnet::harness
