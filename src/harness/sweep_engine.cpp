#include "harness/sweep_engine.hpp"

#include <optional>
#include <string>
#include <unordered_map>

#include "core/general_model.hpp"
#include "core/saturation.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wormnet::harness {

// Memo keys use util::double_bits, which collapses -0.0 onto +0.0: a sweep
// asked at -0.0 must hit the entry stored at 0.0 (a local un-normalized
// copy here once split them into distinct cache keys).
using util::double_bits;

/// A model's content bound for one call: the digest, computed once, and the
/// λ₀ → estimate function.  A GeneralModel is planned once here, so every
/// probe of the call solves through one SolvePlan; any other model answers
/// through its own evaluate().
class SweepEngine::Target {
 public:
  explicit Target(const core::NetworkModel& model) : model_(&model) {
    if (const auto* net = dynamic_cast<const core::GeneralModel*>(&model))
      plan_ = &own_.emplace(*net);
    digest = plan_ ? plan_->digest() : model.content_digest();
    worm_flits = model.worm_flits();
  }
  explicit Target(const core::SolvePlan& plan)
      : digest(plan.digest()), worm_flits(plan.worm_flits()), plan_(&plan) {}

  core::LatencyEstimate evaluate(double lambda0) const {
    return plan_ ? plan_->evaluate(lambda0) : model_->evaluate(lambda0);
  }

  std::uint64_t digest = 0;
  double worm_flits = 0.0;

 private:
  const core::NetworkModel* model_ = nullptr;
  const core::SolvePlan* plan_ = nullptr;
  std::optional<core::SolvePlan> own_;
};

std::size_t SweepEngine::KeyHash::operator()(const Key& k) const {
  return static_cast<std::size_t>(util::hash_mix(k.digest, k.lambda_bits));
}

SweepEngine::SweepEngine(Options opts) : opts_(opts) {
  if (opts_.parallel)
    pool_ = std::make_unique<util::ThreadPool>(opts_.threads);
}

unsigned SweepEngine::threads() const { return pool_ ? pool_->size() : 1u; }

bool SweepEngine::lookup(const Key& key, core::LatencyEstimate& out) {
  if (!opts_.memoize) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = it->second;
  return true;
}

void SweepEngine::store(const Key& key, const core::LatencyEstimate& est) {
  if (!opts_.memoize) return;
  std::lock_guard<std::mutex> lock(mu_);
  cache_.emplace(key, est);
}

core::LatencyEstimate SweepEngine::evaluate(const core::NetworkModel& model,
                                            double lambda0) {
  return evaluate(Target(model), lambda0);
}

core::LatencyEstimate SweepEngine::evaluate(const core::SolvePlan& plan,
                                            double lambda0) {
  return evaluate(Target(plan), lambda0);
}

core::LatencyEstimate SweepEngine::evaluate(const Target& target, double lambda0) {
  const Key key{target.digest, double_bits(lambda0)};
  core::LatencyEstimate est;
  if (lookup(key, est)) return est;
  est = target.evaluate(lambda0);
  store(key, est);
  return est;
}

core::LatencyEstimate SweepEngine::evaluate_load(const core::NetworkModel& model,
                                                 double load_flits) {
  return evaluate(model, load_flits / model.worm_flits());
}

std::vector<SweepPoint> SweepEngine::sweep_lambda(const core::NetworkModel& model,
                                                  const std::vector<double>& lambdas) {
  return sweep_lambda(Target(model), lambdas);
}

std::vector<SweepPoint> SweepEngine::sweep_lambda(const Target& target,
                                                  const std::vector<double>& lambdas) {
  std::vector<SweepPoint> points(lambdas.size());
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    points[i].lambda0 = lambdas[i];
    points[i].load_flits = lambdas[i] * target.worm_flits;
  }

  // Resolve cache hits up front and collect the distinct misses, so each
  // unique λ₀ is looked up and evaluated exactly once no matter how often
  // it appears; duplicates copy from their representative and count as
  // hits (they are evaluations avoided).  The target carries the digest,
  // computed once for the whole sweep.
  const std::uint64_t digest = target.digest;
  std::unordered_map<std::uint64_t, std::size_t> rep;  // λ bits → first index
  std::vector<std::size_t> jobs;                       // uncached unique λ₀
  std::vector<std::size_t> dups;                       // later occurrences
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    if (!rep.emplace(double_bits(lambdas[i]), i).second) {
      dups.push_back(i);
      continue;
    }
    if (!lookup(Key{digest, double_bits(lambdas[i])}, points[i].est)) {
      jobs.push_back(i);
    }
  }
  if (!dups.empty() && opts_.memoize) {
    std::lock_guard<std::mutex> lock(mu_);
    hits_ += dups.size();
  }

  // Evaluate the unique misses — on the pool when parallel, in order when
  // serial.  Each job is a pure function of (model, λ₀), so the schedule
  // cannot change any result bit.
  if (pool_ && jobs.size() > 1) {
    util::parallel_for(*pool_, static_cast<std::int64_t>(jobs.size()),
                       [&](std::int64_t j) {
                         const std::size_t i = jobs[static_cast<std::size_t>(j)];
                         points[i].est = target.evaluate(lambdas[i]);
                       });
  } else {
    for (std::size_t i : jobs) points[i].est = target.evaluate(lambdas[i]);
  }
  for (std::size_t i : jobs) {
    store(Key{digest, double_bits(lambdas[i])}, points[i].est);
  }

  // Fill duplicates from their representative (cached or freshly computed).
  for (std::size_t i : dups) {
    points[i].est = points[rep.at(double_bits(lambdas[i]))].est;
  }
  return points;
}

std::vector<SweepPoint> SweepEngine::sweep_load(const core::NetworkModel& model,
                                                const std::vector<double>& loads) {
  const double sf = model.worm_flits();
  std::vector<double> lambdas;
  lambdas.reserve(loads.size());
  for (double load : loads) lambdas.push_back(load / sf);
  std::vector<SweepPoint> points = sweep_lambda(model, lambdas);
  // Report the caller's loads verbatim (λ·s_f could differ in the last ulp).
  for (std::size_t i = 0; i < loads.size(); ++i) points[i].load_flits = loads[i];
  return points;
}

std::vector<SweepPoint> SweepEngine::sweep_saturation_fractions(
    const core::NetworkModel& model, const std::vector<double>& fractions) {
  const Target target(model);
  const double sat = saturation_rate(target);
  std::vector<double> lambdas;
  lambdas.reserve(fractions.size());
  for (double f : fractions) lambdas.push_back(sat * f);
  return sweep_lambda(target, lambdas);
}

std::vector<FamilyMember> SweepEngine::sweep_family(
    const ModelFactory& make, const std::vector<double>& parameters,
    const std::vector<double>& saturation_fractions) {
  std::vector<FamilyMember> family;
  family.reserve(parameters.size());
  // Members are built and swept one at a time: the per-member sweeps already
  // fan out across the pool, and building serially keeps member order (and
  // thus output order) deterministic.  The cache keys on model content, so
  // member lifetime never interacts with cache validity.
  for (double parameter : parameters) {
    FamilyMember member;
    member.parameter = parameter;
    member.model = make(parameter);
    WORMNET_EXPECTS(member.model != nullptr);
    // One plan and one bisection per member; the fraction points reuse
    // both (sweep_saturation_fractions would re-run the search).
    const Target target(*member.model);
    member.saturation_rate = saturation_rate(target);
    std::vector<double> lambdas;
    lambdas.reserve(saturation_fractions.size());
    for (double f : saturation_fractions) lambdas.push_back(member.saturation_rate * f);
    member.points = sweep_lambda(target, lambdas);
    family.push_back(std::move(member));
  }
  return family;
}

std::vector<FamilyMember> SweepEngine::sweep_burstiness(
    const ArrivalModelFactory& make,
    const std::vector<arrivals::ArrivalSpec>& processes,
    const std::vector<double>& saturation_fractions) {
  // The family axis is the process's (rate-invariant) effective C_a².
  std::vector<double> parameters;
  parameters.reserve(processes.size());
  for (const arrivals::ArrivalSpec& process : processes) {
    WORMNET_EXPECTS(process.check().empty());
    // Bernoulli's SCV depends on λ₀, which varies point-by-point inside a
    // member's own sweep — it has no single position on this axis, and the
    // rate-invariant default below would silently read as Poisson.
    WORMNET_EXPECTS(process.kind() != arrivals::Kind::Bernoulli);
    parameters.push_back(process.effective_ca2());
  }
  // sweep_family builds members one at a time in parameter order, so the
  // i-th factory call is the i-th process (two processes may share a C_a²).
  std::size_t next = 0;
  return sweep_family([&](double) { return make(processes[next++]); }, parameters,
                      saturation_fractions);
}

double SweepEngine::saturation_rate(const core::NetworkModel& model) {
  return saturation_rate(Target(model));
}

double SweepEngine::saturation_rate(const Target& target) {
  WORMNET_EXPECTS(target.worm_flits > 0.0);
  // The same Eq. 26 bisection the models run themselves, but with every
  // probe routed through the cache: repeating the search is free, and the
  // probes seed the cache for later sweeps near saturation.
  return core::find_saturation_rate(
      [&](double lambda0) { return evaluate(target, lambda0).inj_service; },
      1.0 / target.worm_flits);
}

double SweepEngine::saturation_load(const core::NetworkModel& model) {
  return saturation_rate(model) * model.worm_flits();
}

std::uint64_t SweepEngine::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t SweepEngine::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t SweepEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

void SweepEngine::clear_cache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

void SweepEngine::publish_metrics(obs::Registry& reg,
                                  std::string_view label) const {
  std::uint64_t hits, misses;
  std::size_t size;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hits = hits_;
    misses = misses_;
    size = cache_.size();
  }
  std::string l = "engine=";
  l += label;
  reg.gauge("wormnet_sweep_cache_hits", l).set(static_cast<double>(hits));
  reg.gauge("wormnet_sweep_cache_misses", l).set(static_cast<double>(misses));
  reg.gauge("wormnet_sweep_cache_size", l).set(static_cast<double>(size));
  const std::uint64_t total = hits + misses;
  reg.gauge("wormnet_sweep_cache_hit_rate", l)
      .set(total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0);
  reg.gauge("wormnet_sweep_threads", l).set(static_cast<double>(threads()));
}

}  // namespace wormnet::harness
