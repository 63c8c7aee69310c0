#include "sim/traffic.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace wormnet::sim {

TrafficSource::TrafficSource(int num_processors, double lambda0,
                             ArrivalProcess process, std::uint64_t seed,
                             traffic::TrafficSpec spec,
                             arrivals::ArrivalSpec arrival)
    : num_procs_(num_processors),
      lambda0_(lambda0),
      process_(process),
      spec_(std::move(spec)),
      arrival_(std::move(arrival)) {
  WORMNET_EXPECTS(num_processors >= 2);
  WORMNET_EXPECTS(lambda0 >= 0.0);
  WORMNET_EXPECTS(spec_.check(num_processors).empty());
  WORMNET_EXPECTS(arrival_.check().empty());
  for (int p = 0; p < num_processors; ++p) {
    // Arrivals fire at every PE, so silent matrix rows cannot be simulated.
    WORMNET_EXPECTS(spec_.injection_weight(p, num_processors) > 0.0);
  }
  rng_.reserve(static_cast<std::size_t>(num_processors));
  next_time_.assign(static_cast<std::size_t>(num_processors), 0.0);
  for (int p = 0; p < num_processors; ++p) {
    rng_.push_back(util::Rng::stream(seed, static_cast<std::uint64_t>(p)));
  }
  if (process_ == ArrivalProcess::Overload || lambda0_ <= 0.0) return;
  arrival_state_.reserve(static_cast<std::size_t>(num_processors));
  for (int p = 0; p < num_processors; ++p) {
    // Per-stream sampler state; Poisson/Bernoulli draw nothing here, so the
    // legacy draw sequence — and every seeded golden — is preserved.
    arrival_state_.push_back(
        arrival_.init_state(lambda0_, rng_[static_cast<std::size_t>(p)]));
  }
  for (int p = 0; p < num_processors; ++p) schedule_next(p, 0.0);
}

void TrafficSource::schedule_next(int proc, double from_time) {
  const double gap =
      arrival_.next_gap(arrival_state_[static_cast<std::size_t>(proc)], lambda0_,
                        rng_[static_cast<std::size_t>(proc)]);
  const double t = from_time + gap;
  next_time_[static_cast<std::size_t>(proc)] = t;
  heap_.push({t, proc});
}

bool TrafficSource::has_arrival(long cycle) const {
  if (heap_.empty()) return false;
  // An arrival at continuous time t is usable at the first cycle >= t.
  return heap_.top().first <= static_cast<double>(cycle);
}

Arrival TrafficSource::pop_arrival(long cycle) {
  WORMNET_EXPECTS(has_arrival(cycle));
  const auto [time, proc] = heap_.top();
  heap_.pop();
  schedule_next(proc, time);
  // ceil(time) as a long; time <= cycle keeps this within range.
  const long at = static_cast<long>(std::ceil(time));
  return {at, proc};
}

double TrafficSource::next_arrival_time() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().first;
}

int TrafficSource::make_destination(int src) {
  WORMNET_EXPECTS(src >= 0 && src < num_procs_);
  return spec_.sample_destination(src, num_procs_, rng_[static_cast<std::size_t>(src)]);
}

}  // namespace wormnet::sim
