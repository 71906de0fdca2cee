#ifndef NBRAFT_PETRI_PETRI_NET_H_
#define NBRAFT_PETRI_PETRI_NET_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"

namespace nbraft::petri {

/// Place / transition handles.
using PlaceId = int;
using TransitionId = int;

/// A timed stochastic Petri net with guards — the modelling tool the paper
/// uses for Raft log replication (Sec. II, Fig. 3).
///
/// Semantics:
///  * A transition is enabled when every input place holds at least the
///    arc weight in tokens and its guard (if any) passes.
///  * Enabled timed transitions sample a firing delay and race; the first
///    to fire consumes its inputs and produces its outputs (single-server
///    semantics: one pending firing per transition).
///  * Immediate transitions (zero delay) fire before any timed one; when
///    several immediate transitions compete, one is chosen by weight —
///    this expresses probabilistic branching such as "entry arrives out of
///    order with probability p".
///
/// The engine records per-transition firing counts and per-place
/// token-time integrals, which is how the replication model extracts the
/// Fig. 4 phase proportions.
class PetriNet {
 public:
  using DelayFn = std::function<SimDuration(Rng*)>;
  using GuardFn = std::function<bool()>;

  struct Arc {
    PlaceId place = 0;
    int weight = 1;
  };

  explicit PetriNet(uint64_t seed);

  /// Adds a place with an initial marking.
  PlaceId AddPlace(std::string name, int initial_tokens = 0);

  /// Adds a timed transition. `delay` samples the firing time; pass
  /// nullptr for an immediate transition (fires in zero time, arbitrated
  /// by `weight` among competing immediates).
  TransitionId AddTransition(std::string name, std::vector<Arc> inputs,
                             std::vector<Arc> outputs, DelayFn delay,
                             double weight = 1.0, GuardFn guard = nullptr);

  /// Sets the number of parallel servers of a timed transition: up to
  /// `servers` enabled firings can be in service concurrently. 1 (the
  /// default) models a serialized resource such as the follower's log
  /// lock; a large value models a parallel stage such as the network or a
  /// dispatcher pool (use kInfiniteServers).
  void SetServers(TransitionId t, int servers);

  static constexpr int kInfiniteServers = 1 << 20;

  /// Fixed-delay convenience.
  static DelayFn FixedDelay(SimDuration d) {
    return [d](Rng*) { return d; };
  }
  /// Exponential-delay convenience.
  static DelayFn ExponentialDelay(SimDuration mean) {
    return [mean](Rng* rng) {
      return static_cast<SimDuration>(
          rng->NextExponential(static_cast<double>(mean)));
    };
  }

  // ---- Simulation ----

  /// Runs the net until `horizon` virtual time (or quiescence).
  void Run(SimTime horizon);

  /// Processes a single firing; returns false at quiescence.
  bool Step(SimTime horizon);

  SimTime Now() const { return now_; }

  // ---- State & statistics ----
  int Tokens(PlaceId place) const;
  bool IsEnabled(TransitionId t) const;
  uint64_t Firings(TransitionId t) const;

  /// Integral of token count over time for a place (token·ns): divide by
  /// elapsed time for the mean queue length, or by firings of the
  /// downstream transition for the mean waiting time (Little's law).
  double TokenTime(PlaceId place) const;

  const std::string& PlaceName(PlaceId place) const;
  int num_places() const { return static_cast<int>(places_.size()); }
  int num_transitions() const {
    return static_cast<int>(transitions_.size());
  }

 private:
  struct Place {
    std::string name;
    int tokens = 0;
    double token_time = 0.0;  // Integral of tokens dt.
    SimTime last_change = 0;
  };

  struct Transition {
    std::string name;
    std::vector<Arc> inputs;
    std::vector<Arc> outputs;
    DelayFn delay;          // nullptr = immediate.
    double weight = 1.0;
    GuardFn guard;
    int servers = 1;
    uint64_t firings = 0;
    std::multiset<SimTime> pending;  // In-service firings.
  };

  bool InputsAvailable(const Transition& t) const;
  /// How many concurrent enablings the marking supports.
  int EnabledCopies(const Transition& t) const;
  void Fire(TransitionId id);
  void AccrueTokenTime(Place* place);
  /// Fires eligible immediate transitions until none is enabled.
  void DrainImmediates();
  /// (Re-)schedules timed transitions that became enabled.
  void RefreshTimedTransitions();

  SimTime now_ = 0;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  Rng rng_;
};

}  // namespace nbraft::petri

#endif  // NBRAFT_PETRI_PETRI_NET_H_
