// Tests for the bursty-arrivals subsystem: ArrivalSpec closed-form C_a²
// vs the empirical SCV of 10⁶ sampled gaps (the acceptance contract: within
// 5%), sampler determinism and the Poisson bit-identity guarantee, the
// Allen–Cunneen G/G/m kernels, the QNA self_frac propagation through
// build_traffic_model / set_injection_ca2, the SweepEngine burstiness axis,
// and the SimConfig fail-fast validation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/traffic_model.hpp"
#include "harness/sim_engine.hpp"
#include "harness/sweep_engine.hpp"
#include "queueing/channel_solver.hpp"
#include "queueing/queueing.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wormnet {
namespace {

using arrivals::ArrivalSpec;
using arrivals::ArrivalState;

/// Mean and SCV of `n` sampled gaps (the simulator draws gaps through this
/// exact code path, so this IS the measured sim inter-arrival SCV).
struct GapStats {
  double mean = 0.0;
  double scv = 0.0;
};

GapStats sample_gaps(const ArrivalSpec& spec, double lambda0, int n,
                     std::uint64_t seed) {
  util::Rng rng = util::Rng::stream(seed, 17);
  ArrivalState state = spec.init_state(lambda0, rng);
  util::RunningStats stats;
  for (int i = 0; i < n; ++i) stats.add(spec.next_gap(state, lambda0, rng));
  GapStats g;
  g.mean = stats.mean();
  g.scv = stats.variance() / (stats.mean() * stats.mean());
  return g;
}

constexpr int kSamples = 1'000'000;

// --- C_a² closed forms vs empirical SCV (the 5% acceptance bound). --------

struct ScvCase {
  ArrivalSpec spec;
  double lambda0;
};

class ArrivalScv : public ::testing::TestWithParam<int> {};

const ScvCase kScvCases[] = {
    {ArrivalSpec::poisson(), 0.05},
    {ArrivalSpec::bernoulli(), 0.3},
    {ArrivalSpec::deterministic(), 0.02},
    {ArrivalSpec::batch(4.0), 0.05},
    {ArrivalSpec::batch(2.5), 0.2},
    {ArrivalSpec::on_off(0.4, 4.0), 0.05},
    {ArrivalSpec::mmpp2(0.3, 0.1, 8.0), 0.05},
    {ArrivalSpec::trace({1.0, 0.2, 3.0, 0.5, 1.3}), 0.1},
};

TEST_P(ArrivalScv, ClosedFormMatchesEmpiricalScvWithin5Percent) {
  const ScvCase& c = kScvCases[GetParam()];
  ASSERT_TRUE(c.spec.check().empty()) << c.spec.check();
  const double analytic = c.spec.ca2(c.lambda0);
  const GapStats g = sample_gaps(c.spec, c.lambda0, kSamples, 2026);
  // The mean rate is exactly λ₀ for every process (burstiness reshapes the
  // gaps, never the offered load).
  EXPECT_NEAR(g.mean, 1.0 / c.lambda0, 0.02 / c.lambda0) << c.spec.name();
  if (analytic == 0.0) {
    // Deterministic: only the random initial phase perturbs the SCV.
    EXPECT_LT(g.scv, 1e-4) << c.spec.name();
  } else {
    EXPECT_NEAR(g.scv, analytic, 0.05 * analytic)
        << c.spec.name() << ": analytic C_a²=" << analytic
        << " empirical=" << g.scv;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, ArrivalScv,
                         ::testing::Range(0, static_cast<int>(std::size(kScvCases))));

TEST(ArrivalSpecTest, ClosedFormValues) {
  EXPECT_DOUBLE_EQ(ArrivalSpec::poisson().ca2(), 1.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::deterministic().ca2(), 0.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::bernoulli().ca2(0.3), 0.7);
  // Compound Poisson with Geometric(mean b) batches: C_a² = 2b − 1.
  EXPECT_DOUBLE_EQ(ArrivalSpec::batch(1.0).ca2(), 1.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::batch(4.0).ca2(), 7.0);
  // Trace SCV is the (normalized) trace's own variance over mean².
  EXPECT_NEAR(ArrivalSpec::trace({1.0, 1.0, 1.0}).ca2(), 0.0, 1e-12);
  EXPECT_NEAR(ArrivalSpec::trace({2.0, 0.0}).ca2(), 1.0, 1e-12);
}

TEST(ArrivalSpecTest, BatchResidualIsTheIntraBatchSerializationTerm) {
  // (E[B²] − E[B])/(2E[B]) = b − 1 for Geometric(mean b) batches: the mean
  // batch-mates ahead of a random arrival.  Zero for batchless processes —
  // their burstiness lives entirely in the SCV.
  EXPECT_DOUBLE_EQ(ArrivalSpec::batch(4.0).batch_residual(), 3.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::batch(1.0).batch_residual(), 0.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::poisson().batch_residual(), 0.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::mmpp2(0.3, 0.1, 8.0).batch_residual(), 0.0);
  EXPECT_DOUBLE_EQ(ArrivalSpec::deterministic().batch_residual(), 0.0);
}

TEST(ScvPropagationBatch, ResidualAddsLoadIndependentSourceWait) {
  topo::ButterflyFatTree ft(2);
  core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const double lam = 0.2 * net.saturation_rate();
  const core::LatencyEstimate poisson = net.evaluate(lam);
  net.set_injection_process(ArrivalSpec::batch(4.0));
  const core::LatencyEstimate batch = net.evaluate(lam);
  // At 20% load the epoch-queue wait is small, but a mean-4 batch still
  // serializes ~3 worm services at the source — the residual dominates.
  EXPECT_GT(batch.inj_wait, poisson.inj_wait + 2.5 * poisson.inj_service);
}

TEST(ArrivalSpecTest, OnOffMatchesIppClosedForm) {
  // The σ = 0 MMPP-2 is Kuczura's interrupted Poisson process, a renewal
  // process with the classic SCV 1 + 2·λ_ON·r_ON/(r_ON + r_OFF)².  The
  // general 2×2 MAP moment code must reproduce it exactly.
  const double f = 0.4, k = 4.0;
  const double lam_on = 1.0 / f;          // unit mean rate
  const double r_on = lam_on / k;
  const double r_off = r_on * f / (1.0 - f);
  const double ipp = 1.0 + 2.0 * lam_on * r_on / ((r_on + r_off) * (r_on + r_off));
  EXPECT_NEAR(ArrivalSpec::on_off(f, k).ca2(), ipp, 1e-12);
}

TEST(ArrivalSpecTest, Mmpp2Ca2IsRateInvariantAndAboveOne) {
  const ArrivalSpec spec = ArrivalSpec::mmpp2(0.25, 0.2, 6.0);
  const double c = spec.ca2();
  EXPECT_GT(c, 1.0);  // modulated Poisson is always burstier than Poisson
  EXPECT_DOUBLE_EQ(spec.ca2(0.01), c);
  EXPECT_DOUBLE_EQ(spec.ca2(0.5), c);
}

TEST(ArrivalSpecTest, EffectiveCa2FoldsMmppCorrelationIn) {
  // Renewal processes: effective == interval SCV.
  for (const ArrivalSpec& s :
       {ArrivalSpec::poisson(), ArrivalSpec::deterministic(),
        ArrivalSpec::batch(4.0), ArrivalSpec::trace({1.0, 0.5, 2.0})}) {
    EXPECT_DOUBLE_EQ(s.effective_ca2(), s.ca2()) << s.name();
  }
  // The IPP (λ_OFF = 0) is itself a renewal process (hyperexponential-2),
  // so its limiting index of dispersion must EQUAL its interval SCV — a
  // cross-validation of the two independent closed forms.  Closed-form
  // check against Fischer & Meier-Hellstern at unit rate.
  const double f = 0.3, k = 8.0;
  const ArrivalSpec ipp = ArrivalSpec::on_off(f, k);
  EXPECT_NEAR(ipp.effective_ca2(), ipp.ca2(), 1e-9);
  const double lam_on = 1.0 / f;
  const double r_on = lam_on / k;
  const double r_off = r_on * f / (1.0 - f);
  const double idc =
      1.0 + 2.0 * f * (1.0 - f) * lam_on * lam_on / (r_on + r_off);
  EXPECT_NEAR(ipp.effective_ca2(), idc, 1e-12);
  // With λ_OFF > 0 the gaps are genuinely correlated (a non-renewal MMPP),
  // and the asymptotic parameter strictly exceeds the interval SCV.
  const ArrivalSpec mmpp = ArrivalSpec::mmpp2(0.3, 0.1, 8.0);
  EXPECT_GT(mmpp.effective_ca2(), 1.5 * mmpp.ca2());
}

TEST(ArrivalSpecTest, CheckRejectsBadParameters) {
  EXPECT_FALSE(ArrivalSpec::batch(0.5).check().empty());
  // Unbounded means would let the sampler's geometric batch-size draw reach
  // int range (UB on the cast); check() bounds them instead.
  EXPECT_FALSE(ArrivalSpec::batch(2e6).check().empty());
  EXPECT_FALSE(ArrivalSpec::mmpp2(0.0, 0.0, 4.0).check().empty());
  EXPECT_FALSE(ArrivalSpec::mmpp2(1.0, 0.0, 4.0).check().empty());
  EXPECT_FALSE(ArrivalSpec::mmpp2(0.5, 1.0, 4.0).check().empty());
  EXPECT_FALSE(ArrivalSpec::mmpp2(0.5, 0.0, 0.0).check().empty());
  EXPECT_FALSE(ArrivalSpec::trace({}).check().empty());
  EXPECT_FALSE(ArrivalSpec::trace({0.0, 0.0}).check().empty());
  EXPECT_FALSE(ArrivalSpec::trace({1.0, -1.0}).check().empty());
  EXPECT_TRUE(ArrivalSpec::trace({1.0, 2.0}).check().empty());
}

// --- Sampler determinism and the Poisson bit-identity contract. -----------

TEST(ArrivalSampler, PoissonDrawsAreBitIdenticalToLegacyExponential) {
  // The golden-trace contract hinges on this: the Poisson spec consumes
  // exactly one Rng::exponential(λ₀) per gap and nothing at init.
  const double lambda0 = 0.07;
  util::Rng a = util::Rng::stream(42, 3);
  util::Rng b = util::Rng::stream(42, 3);
  const ArrivalSpec spec = ArrivalSpec::poisson();
  ArrivalState st = spec.init_state(lambda0, a);
  for (int i = 0; i < 1000; ++i) {
    const double got = spec.next_gap(st, lambda0, a);
    const double want = b.exponential(lambda0);
    ASSERT_EQ(got, want) << "draw " << i;
  }
}

TEST(ArrivalSampler, SeededReplay) {
  for (const ScvCase& c : kScvCases) {
    const GapStats g1 = sample_gaps(c.spec, c.lambda0, 5000, 7);
    const GapStats g2 = sample_gaps(c.spec, c.lambda0, 5000, 7);
    EXPECT_EQ(g1.mean, g2.mean) << c.spec.name();
    EXPECT_EQ(g1.scv, g2.scv) << c.spec.name();
  }
}

TEST(ArrivalSampler, BatchEmitsZeroGapsInsideBatches) {
  const ArrivalSpec spec = ArrivalSpec::batch(4.0);
  util::Rng rng = util::Rng::stream(11, 0);
  ArrivalState st = spec.init_state(0.1, rng);
  int zeros = 0;
  for (int i = 0; i < 10000; ++i) {
    if (spec.next_gap(st, 0.1, rng) == 0.0) ++zeros;
  }
  // Geometric(mean 4) batches: 3 of every 4 gaps are intra-batch zeros.
  EXPECT_NEAR(zeros / 10000.0, 0.75, 0.02);
}

// --- Allen–Cunneen kernels. -----------------------------------------------

TEST(AllenCunneen, ScaleAndReductions) {
  using namespace queueing;
  EXPECT_DOUBLE_EQ(allen_cunneen_scale(1.0, 0.37), 1.0);
  EXPECT_DOUBLE_EQ(allen_cunneen_scale(3.0, 1.0), 2.0);
  // G/G/1 and G/G/m are scaled_wait_gg over the M/G/1 and M/G/m kernels;
  // at C_a² = 1 they are those kernels, bit for bit.
  EXPECT_EQ(scaled_wait_gg(mg1_wait(0.02, 10.0, 0.5), 1.0, 0.5),
            mg1_wait(0.02, 10.0, 0.5));
  EXPECT_EQ(scaled_wait_gg(mgm_wait(3, 0.1, 10.0, 0.5), 1.0, 0.5),
            mgm_wait(3, 0.1, 10.0, 0.5));
  // G/G/1 is Kingman's W = ρ x̄ (C_a² + C_s²) / (2 (1 − ρ)).
  const double rho = 0.02 * 10.0;
  EXPECT_DOUBLE_EQ(scaled_wait_gg(mg1_wait(0.02, 10.0, 0.5), 3.0, 0.5),
                   rho * 10.0 * (3.0 + 0.5) / (2.0 * (1.0 - rho)));
  // G/G/m is (C_a² + C_s²)/2 · W_{M/M/m}.
  EXPECT_DOUBLE_EQ(scaled_wait_gg(mgm_wait(3, 0.1, 10.0, 0.5), 3.0, 0.5),
                   0.5 * (3.0 + 0.5) * mmm_wait(3, 0.1, 10.0));
  // D/D/1 (C_a² = C_s² = 0) never waits.
  EXPECT_EQ(scaled_wait_gg(mg1_wait(0.02, 10.0, 0.0), 0.0, 0.0), 0.0);
  // Saturation still diverges.
  EXPECT_TRUE(std::isinf(scaled_wait_gg(mg1_wait(0.2, 10.0, 1.0), 4.0, 1.0)));
}

TEST(AllenCunneen, BundleWaitBitIdenticalAtPoissonAndScalesAbove) {
  using namespace queueing;
  const ChannelSolver solver(16.0);
  for (int m : {1, 2, 4}) {
    const double lam = 0.01, xbar = 20.0, sf = 16.0;  // per-link rate
    const double base = wormhole_wait(m, lam * m, xbar, sf);
    EXPECT_EQ(solver.bundle_wait({.servers = m}, lam, xbar), base) << "m=" << m;
    EXPECT_EQ(solver.bundle_wait({.servers = m, .ca2 = 1.0}, lam, xbar), base)
        << "m=" << m;
    const double cb2 = wormhole_cb2(xbar, sf);
    EXPECT_DOUBLE_EQ(solver.bundle_wait({.servers = m, .ca2 = 5.0}, lam, xbar),
                     base * (5.0 + cb2) / (1.0 + cb2))
        << "m=" << m;
    // Smoother-than-Poisson arrivals shrink the wait, never below zero.
    const double smooth = solver.bundle_wait({.servers = m, .ca2 = 0.0}, lam, xbar);
    EXPECT_LT(smooth, base) << "m=" << m;
    EXPECT_GE(smooth, 0.0) << "m=" << m;
  }
}

TEST(AllenCunneen, ChannelSolverScalesByChannelScv) {
  const queueing::ChannelSolver solver(16.0);
  const double base = solver.bundle_wait({.servers = 2}, 0.01, 20.0);
  EXPECT_EQ(base, queueing::wormhole_wait(2, 0.02, 20.0, 16.0));
  EXPECT_GT(solver.bundle_wait({.servers = 2, .ca2 = 6.0}, 0.01, 20.0), base);
  EXPECT_EQ(solver.bundle_wait({.servers = 2, .ca2 = 1.0}, 0.01, 20.0), base);
}

// --- QNA propagation through the traffic-model builder. -------------------

TEST(ScvPropagation, InjectionChannelsRetainTheFullProcess) {
  topo::ButterflyFatTree ft(2);
  core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  for (int inj : net.injection_classes) {
    EXPECT_DOUBLE_EQ(net.graph.at(inj).self_frac, 1.0);
    EXPECT_DOUBLE_EQ(net.graph.at(inj).ca2, 1.0);  // Poisson default
  }
  for (int id = 0; id < net.graph.size(); ++id) {
    const core::ChannelClass& c = net.graph.at(id);
    EXPECT_GE(c.self_frac, 0.0) << c.label;
    EXPECT_LE(c.self_frac, 1.0) << c.label;
    if (c.rate_per_link > 0.0 && !c.terminal) {
      EXPECT_GT(c.self_frac, 0.0) << c.label;
    }
  }
}

TEST(ScvPropagation, DeepChannelsPoissonifyBelowInjection) {
  // Superposition limit: a root-level channel merges many thin sub-streams,
  // so it must retain strictly less burstiness than the injection channel.
  topo::Hypercube hc(4);
  core::GeneralModel net =
      core::build_traffic_model(hc, traffic::TrafficSpec::uniform());
  net.set_injection_ca2(9.0);
  double min_frac = 1.0, max_nonterm = 0.0;
  for (int id = 0; id < net.graph.size(); ++id) {
    const core::ChannelClass& c = net.graph.at(id);
    if (c.rate_per_link <= 0.0) continue;
    min_frac = std::min(min_frac, c.self_frac);
    EXPECT_DOUBLE_EQ(c.ca2, 1.0 + 8.0 * c.self_frac) << c.label;
    if (!c.terminal && c.self_frac < 1.0)
      max_nonterm = std::max(max_nonterm, c.self_frac);
  }
  EXPECT_LT(min_frac, 0.5);     // deep merges shed most of the burstiness
  EXPECT_LT(max_nonterm, 1.0);  // only injections keep all of it
}

TEST(ScvPropagation, SetInjectionCa2OneIsBitIdenticalToDefault) {
  topo::ButterflyFatTree ft(3);
  const core::GeneralModel base =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  core::GeneralModel retuned = base;
  retuned.set_injection_ca2(4.0);
  retuned.set_injection_ca2(1.0);
  const double lam = 0.5 / 16.0;
  const core::LatencyEstimate a = base.evaluate(lam);
  const core::LatencyEstimate b = retuned.evaluate(lam);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.inj_wait, b.inj_wait);
  EXPECT_EQ(a.inj_service, b.inj_service);
}

TEST(ScvPropagation, LatencyIsMonotoneInInjectionCa2) {
  topo::ButterflyFatTree ft(3);
  core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const double lam = 0.5 * net.saturation_rate();
  double prev = -1.0;
  for (double ca2 : {0.0, 1.0, 3.0, 7.0, 15.0}) {
    net.set_injection_ca2(ca2);
    const core::LatencyEstimate est = net.evaluate(lam);
    ASSERT_TRUE(est.stable) << "ca2=" << ca2;
    EXPECT_GT(est.latency, prev) << "ca2=" << ca2;
    prev = est.latency;
  }
}

// --- Harness: the burstiness axis. ----------------------------------------

TEST(BurstinessSweep, FamilyIsOrderedByCa2AndCacheKeysSeparate) {
  topo::ButterflyFatTree ft(2);
  const core::GeneralModel base =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  harness::SweepEngine engine;
  const std::vector<arrivals::ArrivalSpec> processes = {
      ArrivalSpec::deterministic(), ArrivalSpec::poisson(),
      ArrivalSpec::batch(3.0)};
  const auto family = engine.sweep_burstiness(
      [&](const arrivals::ArrivalSpec& p) {
        auto m = std::make_unique<core::GeneralModel>(base);
        m->set_injection_process(p);
        return m;
      },
      processes, {0.2, 0.5});
  ASSERT_EQ(family.size(), 3u);
  EXPECT_DOUBLE_EQ(family[0].parameter, 0.0);
  EXPECT_DOUBLE_EQ(family[1].parameter, 1.0);
  EXPECT_DOUBLE_EQ(family[2].parameter, 5.0);
  // At equal fractions of each member's own saturation, latency grows with
  // burstiness.
  for (std::size_t pt = 0; pt < 2; ++pt) {
    EXPECT_LT(family[0].points[pt].est.latency, family[1].points[pt].est.latency);
    EXPECT_LT(family[1].points[pt].est.latency, family[2].points[pt].est.latency);
  }
}

// --- SimConfig fail-fast validation. --------------------------------------

TEST(SimConfigValidation, RejectsNonsenseLoudly) {
  topo::ButterflyFatTree ft(1);
  sim::SimNetwork net(ft);
  sim::SimConfig good;
  good.load_flits = 0.01;
  good.warmup_cycles = 100;
  good.measure_cycles = 1000;
  {
    sim::SimConfig cfg = good;
    cfg.load_flits = -0.1;  // negative load
    EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  }
  {
    sim::SimConfig cfg = good;
    cfg.worm_flits = 0;  // zero flit length
    EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  }
  {
    sim::SimConfig cfg = good;
    cfg.measure_cycles = 0;
    EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  }
  {
    sim::SimConfig cfg = good;
    cfg.arrival_process = ArrivalSpec::batch(0.25);  // invalid batch mean
    EXPECT_THROW(sim::Simulator(net, cfg), std::invalid_argument);
  }
  EXPECT_NO_THROW(sim::Simulator(net, good));
}

TEST(SimConfigValidation, ZeroWarmupRejectionSurvivesCatchAndRetry) {
  // The deferred check must fire on EVERY attempt: a caller that catches
  // the first throw and calls run() again may not silently proceed with
  // the biased zero-warmup window.
  topo::ButterflyFatTree ft(1);
  sim::SimNetwork net(ft);
  sim::SimConfig cfg;
  cfg.load_flits = 0.01;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1000;
  sim::Simulator s(net, cfg);
  EXPECT_THROW(s.run(), std::invalid_argument);
  EXPECT_THROW(s.run(), std::invalid_argument);
}

TEST(SimConfigValidation, SimEngineRejectsBadCellsOnTheCallingThread) {
  // An invalid cell config must surface as a catchable error BEFORE the
  // campaign fans out — thrown from a pool worker it would escape
  // ThreadPool::worker_loop and std::terminate the process.
  topo::ButterflyFatTree ft(1);
  harness::SimEngine engine;
  harness::SimCell bad;
  bad.topology = &ft;
  bad.cfg.load_flits = -1.0;
  bad.label = "bad-load";
  EXPECT_THROW(engine.run_cells({bad, bad}), std::invalid_argument);
  harness::SimCell cold;
  cold.topology = &ft;
  cold.cfg.load_flits = 0.01;
  cold.cfg.warmup_cycles = 0;  // open-loop campaign cell: rejected eagerly
  cold.label = "cold-start";
  EXPECT_THROW(engine.run_cells({cold, cold}), std::invalid_argument);
}

TEST(ScvPropagation, BernoulliTuningDemandsTheOperatingRate) {
  topo::ButterflyFatTree ft(2);
  core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  // At λ₀ the Bernoulli SCV is 1 − λ₀; the rate-invariant default would
  // silently collapse to the Poisson fallback, so it aborts loudly.
  EXPECT_DEATH(net.set_injection_process(ArrivalSpec::bernoulli()),
               "precondition");
  net.set_injection_process(ArrivalSpec::bernoulli(), 0.25);
  EXPECT_DOUBLE_EQ(net.injection_ca2, 0.75);
}

// --- Simulator integration: bursty sources keep the offered load. ---------

TEST(BurstySim, BatchSourcesDeliverTheConfiguredLoad) {
  topo::ButterflyFatTree ft(2);
  sim::SimConfig cfg;
  cfg.load_flits = 0.04;  // well below saturation even with bursts
  cfg.worm_flits = 16;
  cfg.seed = 31;
  cfg.warmup_cycles = 4000;
  cfg.measure_cycles = 60000;
  cfg.max_cycles = 400000;
  cfg.channel_stats = false;
  cfg.arrival_process = ArrivalSpec::batch(4.0);
  const sim::SimResult r = sim::simulate(ft, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.throughput_flits_per_pe, cfg.load_flits, 0.15 * cfg.load_flits);
  // Burstier arrivals at the same load queue longer at the source than the
  // Poisson baseline.
  sim::SimConfig poisson = cfg;
  poisson.arrival_process = ArrivalSpec::poisson();
  const sim::SimResult p = sim::simulate(ft, poisson);
  ASSERT_TRUE(p.completed);
  EXPECT_GT(r.queue_wait.mean(), p.queue_wait.mean());
}

}  // namespace
}  // namespace wormnet
