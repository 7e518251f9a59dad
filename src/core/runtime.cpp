#include "core/runtime.h"

#include "common/logging.h"

namespace knactor::core {

using common::Status;

de::ObjectDe& Runtime::add_object_de(const std::string& name,
                                     de::ObjectDeProfile profile) {
  auto it = object_des_.find(name);
  if (it != object_des_.end()) return *it->second;
  auto de = std::make_unique<de::ObjectDe>(clock_, std::move(profile));
  de::ObjectDe& ref = *de;
  ref.set_shards(scheduler_.shards());
  ref.kernel().enable_provenance(lineage_capacity_);
  object_des_[name] = std::move(de);
  return ref;
}

de::ObjectDe* Runtime::object_de(const std::string& name) {
  auto it = object_des_.find(name);
  return it == object_des_.end() ? nullptr : it->second.get();
}

de::LogDe& Runtime::add_log_de(const std::string& name,
                               de::LogDeProfile profile) {
  auto it = log_des_.find(name);
  if (it != log_des_.end()) return *it->second;
  auto de = std::make_unique<de::LogDe>(clock_, std::move(profile));
  de::LogDe& ref = *de;
  ref.kernel().enable_provenance(lineage_capacity_);
  log_des_[name] = std::move(de);
  return ref;
}

void Runtime::set_shards(std::size_t n) {
  scheduler_.set_shards(n);
  for (auto& [name, de] : object_des_) {
    de->set_shards(scheduler_.shards());
  }
}

void Runtime::enable_lineage(std::size_t capacity) {
  lineage_capacity_ = capacity;
  for (auto& [name, de] : object_des_) {
    de->kernel().enable_provenance(capacity);
  }
  for (auto& [name, de] : log_des_) {
    de->kernel().enable_provenance(capacity);
  }
}

de::LogDe* Runtime::log_de(const std::string& name) {
  auto it = log_des_.find(name);
  return it == log_des_.end() ? nullptr : it->second.get();
}

net::SimNetwork& Runtime::network() {
  if (!network_) {
    network_ = std::make_unique<net::SimNetwork>(clock_);
    // Chaos faults injected into the runtime's network surface in the
    // runtime's own telemetry.
    attach_fault_observer(*network_, &tracer_, &metrics_);
  }
  return *network_;
}

void attach_fault_observer(net::SimNetwork& network, Tracer* tracer,
                           Metrics* metrics) {
  network.set_fault_observer([tracer, metrics](const sim::FaultRecord& rec) {
    const std::string kind = sim::fault_kind_name(rec.kind);
    if (metrics != nullptr) {
      metrics->inc("chaos.fault");
      metrics->inc("chaos.fault." + kind);
    }
    if (tracer != nullptr) {
      auto span = tracer->begin("chaos.fault");
      tracer->annotate(span, "kind", kind);
      tracer->annotate(span, "link", rec.src + "->" + rec.dst);
      if (!rec.detail.empty()) tracer->annotate(span, "detail", rec.detail);
      tracer->end(span);
    }
  });
}

Knactor& Runtime::add_knactor(std::unique_ptr<Knactor> knactor) {
  knactors_.push_back(std::move(knactor));
  return *knactors_.back();
}

Knactor* Runtime::knactor(const std::string& name) {
  for (auto& k : knactors_) {
    if (k->name() == name) return k.get();
  }
  return nullptr;
}

Integrator& Runtime::add_integrator(std::unique_ptr<Integrator> integrator) {
  integrators_.push_back(std::move(integrator));
  return *integrators_.back();
}

Integrator* Runtime::integrator(const std::string& name) {
  for (auto& i : integrators_) {
    if (i->name() == name) return i.get();
  }
  return nullptr;
}

CastIntegrator* Runtime::cast(const std::string& name) {
  return dynamic_cast<CastIntegrator*>(integrator(name));
}

SyncIntegrator* Runtime::sync(const std::string& name) {
  return dynamic_cast<SyncIntegrator*>(integrator(name));
}

Status Runtime::start_all() {
  for (auto& k : knactors_) {
    k->start();
  }
  for (auto& i : integrators_) {
    KN_TRY(i->start());
  }
  return Status::success();
}

void Runtime::stop_all() {
  for (auto& i : integrators_) i->stop();
  for (auto& k : knactors_) k->stop();
}

RunResult Runtime::run_until_idle(std::size_t max_events) {
  RunResult result;
  while (result.executed < max_events && clock_.step()) {
    ++result.executed;
  }
  if (result.executed >= max_events && clock_.pending() > 0) {
    result.capped = true;
    metrics_.inc("runtime.run_capped");
    KN_WARN << "runtime: run_until_idle stopped at max_events=" << max_events
            << " with " << clock_.pending()
            << " events still pending (simulation may be incomplete)";
  }
  return result;
}

void Runtime::run_for(sim::SimTime duration) {
  clock_.run_until(clock_.now() + duration);
}

}  // namespace knactor::core
