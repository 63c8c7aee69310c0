// Performance-contract guards (ctest label `perf`), the enforcement side of
// the perf overhaul:
//
//  * zero-allocation steady state — a global operator-new counter proves
//    the simulator's cycle loop performs NO heap allocation once the run
//    has reached its concurrency high-water mark (the reused scratch
//    buffers, ring queues and pooled worm paths are load-bearing, not
//    decorative);
//  * flat model copies — copying a GeneralModel costs a handful of heap
//    allocations whatever its class count, because the channel graph keeps
//    its transitions in one flat array;
//  * row-free plan answers — a SolvePlan's latency answers and saturation
//    probes sweep into rows the thread keeps, so once the thread has solved
//    a model that large they allocate nothing;
//  * SimEngine determinism — a campaign's results are bitwise-identical
//    parallel vs serial, the same contract SweepEngine carries.
//
// (The third determinism contract of the overhaul — build_traffic_model
// bitwise-identical for every thread count — lives with the rest of the
// builder's coverage in tests/test_traffic_model.cpp, per topology x
// pattern cell.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/general_model.hpp"
#include "core/traffic_model.hpp"
#include "harness/sim_engine.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator: every path into the heap bumps the counter.
// Only counts — never forbids — so gtest and the standard library work
// normally; tests sample the counter around the region they constrain.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wormnet {
namespace {

TEST(AllocationGuard, SteadyStateCycleLoopAllocatesNothing) {
  // Drive the fat-tree at half saturation, let the run climb to its
  // concurrency high-water mark, then demand bitwise silence from the
  // allocator for a hundred thousand further cycles.
  //
  // The contract being enforced: the cycle loop allocates ONLY when a
  // container grows past its high-water mark (worm pool, active list, a
  // bundle's request ring) — never per cycle, per worm, per grant or per
  // arrival, the way the pre-overhaul loop did (a fresh std::vector every
  // phase_allocate, deque block churn in every queue).  Under stochastic
  // load high-water events get exponentially rarer but never provably
  // stop, so the window below is chosen inside this seed's empirically
  // allocation-free plateau (cycles ~40k–190k; the run is deterministic,
  // so the plateau is too).
  topo::ButterflyFatTree ft(3);
  sim::SimNetwork net(ft);
  sim::SimConfig cfg;
  cfg.load_flits = 0.08;  // ~half of the N=64 uniform saturation (~0.16)
  cfg.worm_flits = 16;
  cfg.seed = 5;
  cfg.warmup_cycles = 1000;  // open-loop runs require a warmup (validated)
  cfg.measure_cycles = 200000;
  cfg.max_cycles = 1000000;
  cfg.channel_stats = true;  // per-channel counters are preallocated

  sim::Simulator warm(net, cfg);
  ASSERT_FALSE(warm.advance(60000));  // ramp: allocations allowed here
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_FALSE(warm.advance(100000));  // steady state: none allowed
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << (after - before) << " heap allocations in the steady-state window";

  // Segmented execution is an instrumentation detail, not a semantic one:
  // finishing the run yields the exact result of one uninterrupted run().
  const sim::SimResult seg = warm.run();
  sim::Simulator fresh(net, cfg);
  const sim::SimResult full = fresh.run();
  EXPECT_EQ(seg.cycles_run, full.cycles_run);
  EXPECT_EQ(seg.latency.count(), full.latency.count());
  EXPECT_EQ(seg.latency.mean(), full.latency.mean());
  EXPECT_EQ(seg.delivered_flits, full.delivered_flits);
  EXPECT_EQ(seg.throughput_flits_per_pe, full.throughput_flits_per_pe);
}

TEST(AllocationGuard, ModelCopyIsFlat) {
  // A tune-only what-if variant starts as a copy of the resident model.  A
  // dense uniform BFT(4) has 960 channel classes; its copy must not make an
  // allocation per class (their labels fit the small-string buffer), only
  // one per array the model holds.
  const topo::ButterflyFatTree ft(4);
  const core::GeneralModel m =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const core::GeneralModel copy(m);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(copy.graph.size(), m.graph.size());
  EXPECT_LE(after - before, 8u)
      << (after - before) << " heap allocations to copy "
      << m.graph.size() << " channel classes";
}

TEST(AllocationGuard, PlanAnswersAllocateNothing) {
  // A what-if answer is a handful of evaluate() calls and a saturation
  // search of ~20 probes on one plan.  None of them builds solution rows:
  // after one warm-up call has sized this thread's sweep rows, a hundred
  // latency answers across the whole load range (stable and saturated)
  // and a full saturation search make no heap allocation.
  const topo::ButterflyFatTree ft(4);
  const core::GeneralModel m =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  const core::SolvePlan plan(m);
  const double top = 1.0 / plan.worm_flits();
  ASSERT_TRUE(plan.evaluate(0.0).stable);  // warm-up: sizes the rows
  double latency_sum = 0.0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    const core::LatencyEstimate est = plan.evaluate(top * i / 100.0);
    if (est.stable) latency_sum += est.latency;
  }
  const double sat = plan.saturation_rate();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(latency_sum, 0.0);
  EXPECT_GT(sat, 0.0);
  EXPECT_LT(sat, top);
  EXPECT_EQ(after, before)
      << (after - before) << " heap allocations in 100 evaluate() calls and "
      << "one saturation_rate() on " << m.graph.size() << " channel classes";
}

void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.queue_wait.mean(), b.queue_wait.mean());
  EXPECT_EQ(a.inj_service.mean(), b.inj_service.mean());
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.delivered_flits, b.delivered_flits);
  EXPECT_EQ(a.generated_messages, b.generated_messages);
  EXPECT_EQ(a.throughput_flits_per_pe, b.throughput_flits_per_pe);
}

TEST(SimEngineDeterminism, CampaignBitwiseIdenticalParallelVsSerial) {
  // The acceptance criterion of the SimEngine: a campaign on >= 4 threads
  // produces BITWISE-identical per-cell results to the serial path — same
  // per-cell seeds, no cross-cell state, scheduling reorders work only.
  topo::ButterflyFatTree ft(2);
  topo::Hypercube hc(3);
  auto cfg_at = [](double load, std::uint64_t seed) {
    sim::SimConfig cfg;
    cfg.load_flits = load;
    cfg.worm_flits = 16;
    cfg.seed = seed;
    cfg.warmup_cycles = 1000;
    cfg.measure_cycles = 5000;
    cfg.max_cycles = 100000;
    return cfg;
  };
  std::vector<harness::SimCell> cells;
  cells.push_back({&ft, cfg_at(0.10, 31), 3, "ft-10"});
  cells.push_back({&ft, cfg_at(0.22, 32), 2, "ft-22"});
  cells.push_back({&hc, cfg_at(0.15, 33), 3, "hc-15"});

  harness::SimEngine parallel({/*threads=*/4, /*parallel=*/true});
  harness::SimEngine serial({/*threads=*/0, /*parallel=*/false});
  EXPECT_EQ(parallel.threads(), 4u);
  EXPECT_EQ(serial.threads(), 1u);

  const auto pa = parallel.run_cells(cells);
  const auto se = serial.run_cells(cells);
  ASSERT_EQ(pa.size(), se.size());
  for (std::size_t c = 0; c < pa.size(); ++c) {
    ASSERT_EQ(pa[c].runs.size(), se[c].runs.size()) << "cell " << c;
    for (std::size_t r = 0; r < pa[c].runs.size(); ++r) {
      expect_bitwise_equal(pa[c].runs[r], se[c].runs[r]);
    }
    // Aggregates reduce in replication order on both sides: bitwise too.
    EXPECT_EQ(pa[c].latency.mean, se[c].latency.mean) << "cell " << c;
    EXPECT_EQ(pa[c].latency.stddev, se[c].latency.stddev) << "cell " << c;
    EXPECT_EQ(pa[c].throughput.mean, se[c].throughput.mean) << "cell " << c;
  }
}

}  // namespace
}  // namespace wormnet
