// Tests for message generation: Poisson/Bernoulli rates, destination
// uniformity, and the overload (closed-loop) source.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"

namespace wormnet::sim {
namespace {

TEST(Traffic, PoissonInterArrivalMeanMatchesRate) {
  const double lambda0 = 0.02;
  TrafficSource src(4, lambda0, ArrivalProcess::Poisson, 5);
  long count = 0;
  const long horizon = 200'000;
  for (long cycle = 0; cycle < horizon; ++cycle) {
    while (src.has_arrival(cycle)) {
      src.pop_arrival(cycle);
      ++count;
    }
  }
  const double rate = static_cast<double>(count) / (4.0 * horizon);
  EXPECT_NEAR(rate, lambda0, lambda0 * 0.05);
}

TEST(Traffic, BernoulliRateMatches) {
  const double lambda0 = 0.05;
  TrafficSource src(4, lambda0, ArrivalProcess::Poisson, 6,
                    traffic::TrafficSpec::uniform(),
                    arrivals::ArrivalSpec::bernoulli());
  long count = 0;
  const long horizon = 100'000;
  for (long cycle = 0; cycle < horizon; ++cycle) {
    while (src.has_arrival(cycle)) {
      src.pop_arrival(cycle);
      ++count;
    }
  }
  const double rate = static_cast<double>(count) / (4.0 * horizon);
  EXPECT_NEAR(rate, lambda0, lambda0 * 0.05);
}

TEST(Traffic, ArrivalsAreCycleOrderedAndDue) {
  TrafficSource src(8, 0.1, ArrivalProcess::Poisson, 7);
  long last = 0;
  for (long cycle = 0; cycle < 10'000; ++cycle) {
    while (src.has_arrival(cycle)) {
      const Arrival a = src.pop_arrival(cycle);
      EXPECT_LE(a.cycle, cycle);
      EXPECT_GE(a.cycle, last - 1);  // global order is by continuous time
      EXPECT_GE(a.proc, 0);
      EXPECT_LT(a.proc, 8);
      last = a.cycle;
    }
  }
}

TEST(Traffic, DestinationsExcludeSelfAndCoverAll) {
  TrafficSource src(16, 0.0, ArrivalProcess::Overload, 8);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 8'000; ++i) {
    const int d = src.make_destination(3);
    EXPECT_NE(d, 3);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 16);
    ++hits[static_cast<std::size_t>(d)];
  }
  // Every other processor should be hit ~533 times; loose uniformity band.
  for (int p = 0; p < 16; ++p) {
    if (p == 3) {
      EXPECT_EQ(hits[static_cast<std::size_t>(p)], 0);
    } else {
      EXPECT_GT(hits[static_cast<std::size_t>(p)], 400) << "p=" << p;
      EXPECT_LT(hits[static_cast<std::size_t>(p)], 680) << "p=" << p;
    }
  }
}

TEST(Traffic, GeneratedCountTracksOfferedLoadInSimulation) {
  topo::ButterflyFatTree ft(2);
  SimNetwork net(ft);
  SimConfig cfg;
  cfg.load_flits = 0.04;
  cfg.worm_flits = 8;
  cfg.seed = 9;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 50'000;
  cfg.max_cycles = 500'000;
  Simulator s(net, cfg);
  const SimResult r = s.run();
  ASSERT_TRUE(r.completed);
  const double offered = cfg.load_flits / cfg.worm_flits;  // messages/cyc/PE
  const double generated = static_cast<double>(r.generated_messages) /
                           (static_cast<double>(cfg.measure_cycles) * 16.0);
  EXPECT_NEAR(generated, offered, offered * 0.08);
}

TEST(Traffic, OverloadSaturatesEveryInjectionChannel) {
  topo::ButterflyFatTree ft(2);
  SimNetwork net(ft);
  SimConfig cfg;
  cfg.arrivals = ArrivalProcess::Overload;
  cfg.worm_flits = 8;
  cfg.seed = 10;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 10'000;
  cfg.channel_stats = true;
  Simulator s(net, cfg);
  const SimResult r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.throughput_flits_per_pe, 0.05);
  // Every processor's injection channel must have been busy most of the
  // window (the source never idles by more than the arbitration gap).
  const topo::ChannelTable ct(ft);
  for (int p = 0; p < ft.num_processors(); ++p) {
    const auto& stat = r.channels[static_cast<std::size_t>(ct.from(p, 0))];
    EXPECT_GT(static_cast<double>(stat.busy_cycles),
              0.5 * static_cast<double>(cfg.measure_cycles))
        << "p=" << p;
  }
}

TEST(Traffic, BernoulliSimulationRuns) {
  topo::ButterflyFatTree ft(2);
  SimNetwork net(ft);
  SimConfig cfg;
  cfg.arrival_process = arrivals::ArrivalSpec::bernoulli();
  cfg.load_flits = 0.03;
  cfg.worm_flits = 16;
  cfg.seed = 11;
  cfg.warmup_cycles = 1'000;
  cfg.measure_cycles = 10'000;
  Simulator s(net, cfg);
  const SimResult r = s.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.latency.count(), 100);
  EXPECT_GT(r.latency.mean(), 16.0);
}

}  // namespace
}  // namespace wormnet::sim
