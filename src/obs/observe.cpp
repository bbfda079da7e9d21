#include "tgcover/obs/observe.hpp"

#include "tgcover/obs/node_stats.hpp"
#include "tgcover/obs/profile.hpp"
#include "tgcover/obs/quality.hpp"
#include "tgcover/obs/round_log.hpp"

namespace tgc::obs {

namespace {

thread_local RoundObservers t_observers;

}  // namespace

ObserverScope::ObserverScope(const RoundObservers& observers)
    : prev_(t_observers) {
  t_observers = observers;
}

ObserverScope::~ObserverScope() { t_observers = prev_; }

const RoundObservers& bound_observers() { return t_observers; }

void round_begin() {
  if (t_observers.rounds != nullptr) t_observers.rounds->begin_round();
}

void round_end(std::uint64_t round, const std::vector<bool>& active,
               std::uint64_t num_active, std::uint64_t candidates,
               std::uint64_t deleted) {
  const RoundObservers& o = t_observers;
  if (o.rounds != nullptr) o.rounds->end_round(num_active, candidates, deleted);
  // The oracle sends no messages, so its rounds record idle-energy charges
  // only — the lifetime baseline a distributed run is judged against.
  if (o.nodes != nullptr) o.nodes->end_round(active);
  if (o.quality != nullptr) o.quality->end_round(active);
  if (profile_active()) {
    profile_round(round);
    profile_mem_sample();
  }
}

void setup_end(const std::vector<bool>& active) {
  const RoundObservers& o = t_observers;
  if (o.nodes != nullptr) o.nodes->end_round(active);
  if (o.quality != nullptr) o.quality->end_round(active);
}

void repair_wave_end(std::uint64_t radius) {
  if (profile_active()) {
    profile_round(radius);
    profile_mem_sample();
  }
}

}  // namespace tgc::obs
