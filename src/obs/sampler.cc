#include "obs/sampler.h"

#include <utility>

#include "common/logging.h"

namespace nbraft::obs {

Sampler::Sampler(sim::Simulator* sim, SimDuration interval)
    : sim_(sim), interval_(interval) {
  NBRAFT_CHECK(sim != nullptr);
  NBRAFT_CHECK_GT(interval, 0);
}

Sampler::~Sampler() { Stop(); }

void Sampler::AddSource(std::string name, std::function<double()> read) {
  NBRAFT_CHECK(!started_) << "AddSource after Start: " << name;
  NBRAFT_CHECK(read != nullptr);
  store_.AddSeries(std::move(name));
  sources_.push_back(std::move(read));
}

void Sampler::Start() {
  if (running_) return;
  started_ = true;
  running_ = true;
  Tick();
}

void Sampler::Stop() {
  running_ = false;
  sim_->Cancel(tick_event_);
  tick_event_ = sim::kInvalidEventId;
}

void Sampler::Tick() {
  if (!running_) return;
  const SimTime now = sim_->Now();
  for (size_t i = 0; i < sources_.size(); ++i) {
    store_.Append(i, now, sources_[i]());
  }
  tick_event_ = sim_->After(interval_, [this]() { Tick(); });
}

}  // namespace nbraft::obs
