#include "apps/epc.h"

#include "common/logging.h"

namespace knactor::apps {

using common::Error;
using common::Result;
using common::Value;
using core::Knactor;
using core::Reconciler;
using de::WatchEvent;

namespace {

constexpr const char* kEpcDxg = R"(Input:
  A: Epc/v1/Session/knactor-session
  H: Epc/v1/Subscriber/knactor-subscriber
  P: Epc/v1/Policy/knactor-policy
  B: Epc/v1/Bearer/knactor-bearer
  G: Epc/v1/Address/knactor-address
DXG:
  A.attach:
    authorized: 'get(get(H, concat("sub/", this.imsi)), "allowed", false)'
    qos: 'get(P.qos, get(get(H, concat("sub/", this.imsi)), "plan"))'
    bearerID: B.bearerID
    ipAddress: G.ip
  B:
    # The authorization gate is a data-centric policy: state only flows to
    # the bearer function for authorized attaches.
    imsi: 'A.attach.imsi if A.attach.authorized else null'
    qos: 'A.attach.qos if A.attach.authorized else null'
  G:
    imsi: A.attach.imsi
    bearerID: B.bearerID
)";

const Value* event_field(const WatchEvent& event, const char* name) {
  if (!event.object.data) return nullptr;
  const Value* v = event.object.data->get(name);
  return v != nullptr && !v->is_null() ? v : nullptr;
}

/// Session (MME/AMF): owns the attach state machine. Reacts only to its
/// own store.
class SessionReconciler : public Reconciler {
 public:
  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "attach" ||
        event.type == de::WatchEventType::kDeleted || !event.object.data) {
      return;
    }
    const Value* state = event.object.data->get("state");
    std::string current =
        state != nullptr && state->is_string() ? state->as_string() : "";
    std::string want = current.empty() ? "requested" : current;

    const Value* authorized = event.object.data->get("authorized");
    if (authorized != nullptr && authorized->is_bool()) {
      if (!authorized->as_bool()) {
        want = "rejected";
      } else if (event_field(event, "bearerID") != nullptr &&
                 event_field(event, "ipAddress") != nullptr) {
        want = "active";
      } else {
        want = current == "active" ? current : "authorizing";
      }
    }
    if (want != current) {
      Value patch = Value::object();
      patch.set("state", Value(want));
      (void)kn.patch_state("attach", std::move(patch));
    }
  }
};

/// Subscriber (HSS): seeds the subscriber database.
class SubscriberReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    struct Sub {
      const char* imsi;
      const char* plan;
      bool allowed;
    };
    for (Sub sub : {Sub{"001010000000001", "premium", true},
                    Sub{"001010000000002", "basic", true},
                    Sub{"001010000000666", "basic", false}}) {
      Value profile = Value::object();
      profile.set("imsi", Value(sub.imsi));
      profile.set("plan", Value(sub.plan));
      profile.set("allowed", Value(sub.allowed));
      (void)kn.put_state(std::string("sub/") + sub.imsi, std::move(profile));
    }
  }
};

/// Policy (PCRF): QoS class per plan.
class PolicyReconciler : public Reconciler {
 public:
  void start(Knactor& kn) override {
    Value qos = Value::object();
    qos.set("premium", Value("qci5"));
    qos.set("basic", Value("qci9"));
    Value state = Value::object();
    state.set("qos", std::move(qos));
    (void)kn.put_state("state", std::move(state));
  }
};

/// Bearer (SGW): allocates a bearer once an authorized attach's imsi+qos
/// land in its store.
class BearerReconciler : public Reconciler {
 public:
  BearerReconciler(sim::VirtualClock& clock, sim::LatencyModel setup)
      : clock_(clock), setup_(setup) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    if (event_field(event, "imsi") == nullptr ||
        event_field(event, "qos") == nullptr ||
        event_field(event, "bearerID") != nullptr || busy_) {
      return;
    }
    busy_ = true;
    Knactor* knactor = &kn;
    clock_.schedule_after(setup_.sample(rng_), [this, knactor]() {
      Value patch = Value::object();
      patch.set("bearerID", Value("brr-" + std::to_string(++seq_)));
      (void)knactor->patch_state("state", std::move(patch));
      busy_ = false;
    });
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel setup_;
  sim::Rng rng_{41};
  bool busy_ = false;
  int seq_ = 0;
};

/// Address (PGW): allocates an IP once a bearer exists.
class AddressReconciler : public Reconciler {
 public:
  AddressReconciler(sim::VirtualClock& clock, sim::LatencyModel allocation)
      : clock_(clock), allocation_(allocation) {}

  void on_object_event(Knactor& kn, const WatchEvent& event) override {
    if (event.object.key != "state" ||
        event.type == de::WatchEventType::kDeleted) {
      return;
    }
    if (event_field(event, "imsi") == nullptr ||
        event_field(event, "bearerID") == nullptr ||
        event_field(event, "ip") != nullptr || busy_) {
      return;
    }
    busy_ = true;
    Knactor* knactor = &kn;
    clock_.schedule_after(allocation_.sample(rng_), [this, knactor]() {
      Value patch = Value::object();
      patch.set("ip", Value("10.0.0." + std::to_string(++seq_)));
      (void)knactor->patch_state("state", std::move(patch));
      busy_ = false;
    });
  }

 private:
  sim::VirtualClock& clock_;
  sim::LatencyModel allocation_;
  sim::Rng rng_{42};
  bool busy_ = false;
  int seq_ = 0;
};

}  // namespace

std::vector<std::string> epc_known_imsis() {
  return {"001010000000001", "001010000000002", "001010000000666"};
}

EpcKnactorApp build_epc_knactor_app(core::Runtime& runtime,
                                    EpcOptions options) {
  EpcKnactorApp app;
  app.runtime = &runtime;
  runtime.set_shards(options.shards);
  de::ObjectDe& de = runtime.add_object_de("epc", options.de_profile);
  app.de = &de;

  struct Spec {
    const char* name;
    std::unique_ptr<Reconciler> reconciler;
  };
  sim::VirtualClock& clock = runtime.clock();
  std::vector<Spec> specs;
  specs.push_back({"session", std::make_unique<SessionReconciler>()});
  specs.push_back({"subscriber", std::make_unique<SubscriberReconciler>()});
  specs.push_back({"policy", std::make_unique<PolicyReconciler>()});
  specs.push_back({"bearer", std::make_unique<BearerReconciler>(
                                 clock, options.bearer_setup)});
  specs.push_back({"address", std::make_unique<AddressReconciler>(
                                  clock, options.ip_allocation)});
  for (auto& spec : specs) {
    de::ObjectStore& store =
        de.create_store(std::string("knactor-") + spec.name);
    auto knactor =
        std::make_unique<Knactor>(spec.name, std::move(spec.reconciler));
    knactor->bind_object_store("state", store);
    runtime.add_knactor(std::move(knactor));
  }
  app.session_store = de.store("knactor-session");
  app.subscriber_store = de.store("knactor-subscriber");
  app.bearer_store = de.store("knactor-bearer");
  app.address_store = de.store("knactor-address");

  auto dxg = core::Dxg::parse(kEpcDxg);
  if (!dxg.ok()) {
    KN_ERROR << "epc: DXG parse failed: " << dxg.error().to_string();
    return app;
  }
  auto integrator = std::make_unique<core::CastIntegrator>(
      "epc", de, dxg.take(),
      std::map<std::string, de::ObjectStore*>{
          {"A", de.store("knactor-session")},
          {"H", de.store("knactor-subscriber")},
          {"P", de.store("knactor-policy")},
          {"B", de.store("knactor-bearer")},
          {"G", de.store("knactor-address")}});
  app.integrator = integrator.get();
  runtime.add_integrator(std::move(integrator));

  auto started = runtime.start_all();
  if (!started.ok()) {
    KN_ERROR << "epc: start failed: " << started.error().to_string();
  }
  runtime.run_until_idle();
  return app;
}

Result<Value> EpcKnactorApp::attach_sync(const std::string& imsi) {
  if (session_store == nullptr) {
    return Error::failed_precondition("epc app not built");
  }
  Value attach = Value::object();
  attach.set("imsi", Value(imsi));
  attach.set("state", Value("requested"));
  KN_TRY(session_store->put_sync("knactor:session", "attach",
                                 std::move(attach)));
  auto done = [this]() {
    const de::StateObject* obj = session_store->peek("attach");
    if (obj == nullptr || !obj->data) return false;
    const Value* state = obj->data->get("state");
    if (state == nullptr || !state->is_string()) return false;
    return state->as_string() == "active" || state->as_string() == "rejected";
  };
  while (!done() && runtime->clock().step()) {
  }
  runtime->run_until_idle();
  const de::StateObject* obj = session_store->peek("attach");
  if (obj == nullptr || !obj->data) {
    return Error::internal("epc: attach object disappeared");
  }
  if (!done()) {
    return Error::internal("epc: attach did not settle (queue drained)");
  }
  return *obj->data;
}

void EpcKnactorApp::reset_attach_state() {
  if (de == nullptr) return;
  if (integrator != nullptr) integrator->stop();
  for (const char* store_name :
       {"knactor-session", "knactor-bearer", "knactor-address"}) {
    de::ObjectStore* store = de->store(store_name);
    if (store == nullptr) continue;
    for (const auto& key : store->keys()) {
      if (key == "attach" || key == "state") {
        (void)store->remove_sync("reset", key);
      }
    }
  }
  runtime->run_until_idle();
  if (integrator != nullptr) {
    (void)integrator->start();
    runtime->run_until_idle();
  }
}

// ---------------------------------------------------------------------------
// RPC baseline.
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kEpcNs = "Epc.v1.";
}  // namespace

EpcRpcApp::EpcRpcApp(sim::VirtualClock& clock, EpcOptions options)
    : clock_(clock), options_(options) {
  network_ = std::make_unique<net::SimNetwork>(clock_);
  network_->set_default_latency(sim::LatencyModel::normal_ms(0.45, 0.04));

  auto msg = [this](const char* name,
                    std::vector<net::FieldDescriptor> fields) {
    net::MessageDescriptor d;
    d.full_name = kEpcNs + std::string(name);
    d.fields = std::move(fields);
    auto added = pool_.add(std::move(d));
    if (!added.ok()) {
      KN_ERROR << "epc-rpc: " << added.error().to_string();
    }
  };
  using net::FieldType;
  msg("AuthenticateRequest", {{1, "imsi", FieldType::kString}});
  msg("AuthenticateResponse", {{1, "allowed", FieldType::kBool},
                               {2, "plan", FieldType::kString}});
  msg("GetPolicyRequest", {{1, "plan", FieldType::kString}});
  msg("GetPolicyResponse", {{1, "qos", FieldType::kString}});
  msg("CreateBearerRequest", {{1, "imsi", FieldType::kString},
                              {2, "qos", FieldType::kString}});
  msg("CreateBearerResponse", {{1, "bearer_id", FieldType::kString}});
  msg("AllocateIpRequest", {{1, "imsi", FieldType::kString},
                            {2, "bearer_id", FieldType::kString}});
  msg("AllocateIpResponse", {{1, "ip", FieldType::kString}});
  msg("AttachRequest", {{1, "imsi", FieldType::kString}});
  msg("AttachResponse", {{1, "imsi", FieldType::kString},
                         {2, "bearer_id", FieldType::kString},
                         {3, "ip", FieldType::kString},
                         {4, "qos", FieldType::kString}});

  auto method = [](const char* name, const std::string& req,
                   const std::string& resp) {
    return net::MethodDescriptor{name, kEpcNs + req, kEpcNs + resp};
  };
  struct Def {
    const char* service;
    const char* node;
    std::vector<net::MethodDescriptor> methods;
  };
  std::vector<Def> defs = {
      {"Hss", "pod-hss",
       {method("Authenticate", "AuthenticateRequest", "AuthenticateResponse")}},
      {"Pcrf", "pod-pcrf",
       {method("GetPolicy", "GetPolicyRequest", "GetPolicyResponse")}},
      {"Sgw", "pod-sgw",
       {method("CreateBearer", "CreateBearerRequest", "CreateBearerResponse")}},
      {"Pgw", "pod-pgw",
       {method("AllocateIp", "AllocateIpRequest", "AllocateIpResponse")}},
      {"Mme", "pod-mme",
       {method("Attach", "AttachRequest", "AttachResponse")}},
  };
  for (const auto& def : defs) {
    auto server = std::make_unique<net::RpcServer>(*network_, def.node, pool_);
    net::ServiceDescriptor sd;
    sd.name = kEpcNs + std::string(def.service);
    sd.methods = def.methods;
    (void)server->add_service(sd, registry_);
    services_.push_back(sd);
    servers_.push_back(std::move(server));
  }

  auto descriptor = [this](const char* service) -> const net::ServiceDescriptor& {
    for (const auto& s : services_) {
      if (s.name == kEpcNs + std::string(service)) return s;
    }
    std::abort();
  };

  (void)servers_[0]->add_handler(
      kEpcNs + std::string("Hss"), "Authenticate",
      [this](const Value& req, net::RpcServer::Respond respond) {
        std::string imsi = req.get("imsi")->as_string();
        clock_.schedule_after(
            options_.hss_lookup.sample(sim_rng_), [imsi, respond]() {
              Value resp = Value::object();
              if (imsi == "001010000000001") {
                resp.set("allowed", Value(true));
                resp.set("plan", Value("premium"));
              } else if (imsi == "001010000000002") {
                resp.set("allowed", Value(true));
                resp.set("plan", Value("basic"));
              } else {
                resp.set("allowed", Value(false));
                resp.set("plan", Value("basic"));
              }
              respond(std::move(resp));
            });
      });
  (void)servers_[1]->add_handler(
      kEpcNs + std::string("Pcrf"), "GetPolicy",
      [](const Value& req, net::RpcServer::Respond respond) {
        Value resp = Value::object();
        resp.set("qos", Value(req.get("plan")->as_string() == "premium"
                                  ? "qci5"
                                  : "qci9"));
        respond(std::move(resp));
      });
  (void)servers_[2]->add_handler(
      kEpcNs + std::string("Sgw"), "CreateBearer",
      [this](const Value&, net::RpcServer::Respond respond) {
        clock_.schedule_after(options_.bearer_setup.sample(sim_rng_),
                              [this, respond]() {
                                Value resp = Value::object();
                                resp.set("bearer_id",
                                         Value("brr-" +
                                               std::to_string(++bearer_seq_)));
                                respond(std::move(resp));
                              });
      });
  (void)servers_[3]->add_handler(
      kEpcNs + std::string("Pgw"), "AllocateIp",
      [this](const Value&, net::RpcServer::Respond respond) {
        clock_.schedule_after(options_.ip_allocation.sample(sim_rng_),
                              [this, respond]() {
                                Value resp = Value::object();
                                resp.set("ip", Value("10.0.0." +
                                                     std::to_string(++ip_seq_)));
                                respond(std::move(resp));
                              });
      });

  channels_.push_back(
      std::make_unique<net::RpcChannel>(*network_, "pod-mme", registry_, pool_));
  channels_.push_back(std::make_unique<net::RpcChannel>(*network_, "pod-enb",
                                                        registry_, pool_));
  (void)servers_[4]->add_handler(
      kEpcNs + std::string("Mme"), "Attach",
      [this, descriptor](const Value& req, net::RpcServer::Respond respond) {
        net::RpcChannel& ch = *channels_[0];
        std::string imsi = req.get("imsi")->as_string();
        Value auth_req = Value::object();
        auth_req.set("imsi", Value(imsi));
        ch.call(descriptor("Hss"), "Authenticate", std::move(auth_req),
                [this, descriptor, respond, imsi](Result<Value> auth) {
                  if (!auth.ok()) {
                    respond(auth.error());
                    return;
                  }
                  if (!auth.value().get("allowed")->as_bool()) {
                    respond(Error::permission_denied("attach rejected: " +
                                                     imsi));
                    return;
                  }
                  std::string plan = auth.value().get("plan")->as_string();
                  net::RpcChannel& ch = *channels_[0];
                  Value policy_req = Value::object();
                  policy_req.set("plan", Value(plan));
                  ch.call(
                      descriptor("Pcrf"), "GetPolicy", std::move(policy_req),
                      [this, descriptor, respond, imsi](Result<Value> policy) {
                        if (!policy.ok()) {
                          respond(policy.error());
                          return;
                        }
                        std::string qos = policy.value().get("qos")->as_string();
                        net::RpcChannel& ch = *channels_[0];
                        Value bearer_req = Value::object();
                        bearer_req.set("imsi", Value(imsi));
                        bearer_req.set("qos", Value(qos));
                        ch.call(
                            descriptor("Sgw"), "CreateBearer",
                            std::move(bearer_req),
                            [this, descriptor, respond, imsi,
                             qos](Result<Value> bearer) {
                              if (!bearer.ok()) {
                                respond(bearer.error());
                                return;
                              }
                              std::string bearer_id =
                                  bearer.value().get("bearer_id")->as_string();
                              net::RpcChannel& ch = *channels_[0];
                              Value ip_req = Value::object();
                              ip_req.set("imsi", Value(imsi));
                              ip_req.set("bearer_id", Value(bearer_id));
                              ch.call(descriptor("Pgw"), "AllocateIp",
                                      std::move(ip_req),
                                      [respond, imsi, qos,
                                       bearer_id](Result<Value> ip) {
                                        if (!ip.ok()) {
                                          respond(ip.error());
                                          return;
                                        }
                                        Value resp = Value::object();
                                        resp.set("imsi", Value(imsi));
                                        resp.set("bearer_id", Value(bearer_id));
                                        resp.set("ip",
                                                 Value(ip.value()
                                                           .get("ip")
                                                           ->as_string()));
                                        resp.set("qos", Value(qos));
                                        respond(std::move(resp));
                                      });
                            });
                      });
                });
      });
}

Result<Value> EpcRpcApp::attach_sync(const std::string& imsi) {
  Value req = Value::object();
  req.set("imsi", Value(imsi));
  const net::ServiceDescriptor* mme = nullptr;
  for (const auto& s : services_) {
    if (s.name == kEpcNs + std::string("Mme")) mme = &s;
  }
  return channels_[1]->call_sync(*mme, "Attach", std::move(req));
}

}  // namespace knactor::apps
