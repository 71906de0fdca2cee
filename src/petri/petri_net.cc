#include "petri/petri_net.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace nbraft::petri {

PetriNet::PetriNet(uint64_t seed) : rng_(seed) {}

PlaceId PetriNet::AddPlace(std::string name, int initial_tokens) {
  NBRAFT_CHECK_GE(initial_tokens, 0);
  Place p;
  p.name = std::move(name);
  p.tokens = initial_tokens;
  places_.push_back(std::move(p));
  return static_cast<PlaceId>(places_.size() - 1);
}

TransitionId PetriNet::AddTransition(std::string name, std::vector<Arc> inputs,
                                     std::vector<Arc> outputs, DelayFn delay,
                                     double weight, GuardFn guard) {
  Transition t;
  t.name = std::move(name);
  t.inputs = std::move(inputs);
  t.outputs = std::move(outputs);
  t.delay = std::move(delay);
  t.weight = weight;
  t.guard = std::move(guard);
  transitions_.push_back(std::move(t));
  return static_cast<TransitionId>(transitions_.size() - 1);
}

bool PetriNet::InputsAvailable(const Transition& t) const {
  for (const Arc& arc : t.inputs) {
    if (places_[static_cast<size_t>(arc.place)].tokens < arc.weight) {
      return false;
    }
  }
  return true;
}

int PetriNet::EnabledCopies(const Transition& t) const {
  if (t.guard != nullptr && !t.guard()) return 0;
  int copies = t.servers;
  for (const Arc& arc : t.inputs) {
    const int tokens = places_[static_cast<size_t>(arc.place)].tokens;
    copies = std::min(copies, tokens / arc.weight);
  }
  if (t.inputs.empty()) copies = std::min(copies, 1);
  return copies;
}

void PetriNet::SetServers(TransitionId t, int servers) {
  NBRAFT_CHECK_GE(servers, 1);
  transitions_[static_cast<size_t>(t)].servers = servers;
}

bool PetriNet::IsEnabled(TransitionId id) const {
  const Transition& t = transitions_[static_cast<size_t>(id)];
  if (!InputsAvailable(t)) return false;
  return t.guard == nullptr || t.guard();
}

int PetriNet::Tokens(PlaceId place) const {
  return places_[static_cast<size_t>(place)].tokens;
}

uint64_t PetriNet::Firings(TransitionId t) const {
  return transitions_[static_cast<size_t>(t)].firings;
}

double PetriNet::TokenTime(PlaceId place) const {
  const Place& p = places_[static_cast<size_t>(place)];
  return p.token_time +
         static_cast<double>(p.tokens) *
             static_cast<double>(now_ - p.last_change);
}

const std::string& PetriNet::PlaceName(PlaceId place) const {
  return places_[static_cast<size_t>(place)].name;
}

void PetriNet::AccrueTokenTime(Place* place) {
  place->token_time += static_cast<double>(place->tokens) *
                       static_cast<double>(now_ - place->last_change);
  place->last_change = now_;
}

void PetriNet::Fire(TransitionId id) {
  Transition& t = transitions_[static_cast<size_t>(id)];
  NBRAFT_CHECK(InputsAvailable(t)) << "firing disabled transition " << t.name;
  for (const Arc& arc : t.inputs) {
    Place& p = places_[static_cast<size_t>(arc.place)];
    AccrueTokenTime(&p);
    p.tokens -= arc.weight;
  }
  for (const Arc& arc : t.outputs) {
    Place& p = places_[static_cast<size_t>(arc.place)];
    AccrueTokenTime(&p);
    p.tokens += arc.weight;
  }
  ++t.firings;
}

void PetriNet::DrainImmediates() {
  for (;;) {
    // Collect enabled immediate transitions and their weights.
    double total_weight = 0.0;
    std::vector<TransitionId> enabled;
    for (size_t i = 0; i < transitions_.size(); ++i) {
      const Transition& t = transitions_[i];
      if (t.delay != nullptr) continue;
      if (!InputsAvailable(t)) continue;
      if (t.guard != nullptr && !t.guard()) continue;
      enabled.push_back(static_cast<TransitionId>(i));
      total_weight += t.weight;
    }
    if (enabled.empty()) return;
    // Weighted random choice (probabilistic branching).
    double pick = rng_.NextDouble() * total_weight;
    TransitionId chosen = enabled.back();
    for (TransitionId id : enabled) {
      pick -= transitions_[static_cast<size_t>(id)].weight;
      if (pick <= 0.0) {
        chosen = id;
        break;
      }
    }
    Fire(chosen);
    // A firing may disable pending timed transitions; they re-validate at
    // their scheduled time.
  }
}

void PetriNet::RefreshTimedTransitions() {
  for (auto& t : transitions_) {
    if (t.delay == nullptr) continue;
    const int copies = EnabledCopies(t);
    while (static_cast<int>(t.pending.size()) < copies) {
      t.pending.insert(now_ + std::max<SimDuration>(t.delay(&rng_), 0));
    }
  }
}

bool PetriNet::Step(SimTime horizon) {
  DrainImmediates();
  RefreshTimedTransitions();

  // Earliest pending firing across all timed transitions.
  SimTime best_time = std::numeric_limits<SimTime>::max();
  int best = -1;
  for (size_t i = 0; i < transitions_.size(); ++i) {
    const Transition& t = transitions_[i];
    if (!t.pending.empty() && *t.pending.begin() < best_time) {
      best_time = *t.pending.begin();
      best = static_cast<int>(i);
    }
  }
  if (best < 0 || best_time > horizon) {
    return false;
  }

  now_ = best_time;
  Transition& t = transitions_[static_cast<size_t>(best)];
  t.pending.erase(t.pending.begin());
  // Re-validate: an immediate firing may have stolen our tokens.
  if (InputsAvailable(t) && (t.guard == nullptr || t.guard())) {
    Fire(static_cast<TransitionId>(best));
  }
  return true;
}

void PetriNet::Run(SimTime horizon) {
  while (Step(horizon)) {
  }
  now_ = horizon;
  for (Place& p : places_) AccrueTokenTime(&p);
}

}  // namespace nbraft::petri
