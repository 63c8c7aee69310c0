#include "core/network_model.hpp"

#include "core/saturation.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wormnet::core {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Ok: return "ok";
    case SolveStatus::Saturated: return "saturated";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Disconnected: return "disconnected";
  }
  return "unknown";
}

std::uint64_t identity_digest(std::string_view name, double worm_flits,
                              const queueing::AblationOptions& ablation,
                              double arrival_ca2, double batch_residual) {
  std::uint64_t h = util::hash_bytes(name);
  h = util::hash_mix(h, (static_cast<std::uint64_t>(ablation.multi_server) << 2) |
                           (static_cast<std::uint64_t>(ablation.blocking_correction) << 1) |
                           static_cast<std::uint64_t>(ablation.erratum_2lambda));
  h = util::hash_mix_double(h, worm_flits);
  h = util::hash_mix_double(h, arrival_ca2);
  h = util::hash_mix_double(h, batch_residual);
  return h;
}

std::uint64_t NetworkModel::content_digest() const {
  // The identity the base interface can observe.  Subclasses whose
  // evaluate() depends on more (channel graphs, lane knobs) mix that state
  // on top — see the header contract.
  return identity_digest(name(), worm_flits(), ablation(), arrival_ca2(),
                         arrival_batch_residual());
}

LatencyEstimate NetworkModel::evaluate_load(double load_flits) const {
  return evaluate(load_flits / worm_flits());
}

double NetworkModel::saturation_rate() const {
  const double sf = worm_flits();
  WORMNET_EXPECTS(sf > 0.0);
  // Eq. 26: find λ₀ with λ₀ · x̄_inj(λ₀) = 1.  x̄_inj >= s_f pins the root
  // below 1/s_f.
  return find_saturation_rate(
      [this](double lambda0) { return evaluate(lambda0).inj_service; },
      1.0 / sf);
}

double NetworkModel::saturation_load() const {
  return saturation_rate() * worm_flits();
}

}  // namespace wormnet::core
