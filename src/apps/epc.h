// Cellular EPC app — the §5 applicability example ("Knactor is
// particularly beneficial for applications with many microservices and
// complex compositions, such as cellular EPC"; cf. Magma). A simplified
// LTE attach procedure across five network functions:
//
//   Session (MME/AMF)  owns the attach state machine
//   Subscriber (HSS)   subscriber profiles (imsi -> key, plan, allowed)
//   Policy (PCRF)      QoS profile per plan
//   Bearer (SGW)       bearer allocation
//   Address (PGW)      IP address pool
//
// Knactor form: each function externalizes state; one Cast integrator
// expresses the attach exchange, including the authorization gate
// ("only provision a bearer for an authorized attach") as a conditional
// mapping — state that isn't ready (or not authorized) simply doesn't
// flow.
//
// RPC form: the MME handler chains HSS.Authenticate -> PCRF.GetPolicy ->
// SGW.CreateBearer -> PGW.AllocateIP, compiling the procedure into code.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "net/rpc.h"

namespace knactor::apps {

struct EpcOptions {
  de::ObjectDeProfile de_profile = de::ObjectDeProfile::redis();
  /// Per-function processing latencies.
  sim::LatencyModel hss_lookup = sim::LatencyModel::constant_ms(1.5);
  sim::LatencyModel bearer_setup = sim::LatencyModel::constant_ms(3.0);
  sim::LatencyModel ip_allocation = sim::LatencyModel::constant_ms(2.0);
};

/// The data-centric deployment.
struct EpcKnactorApp {
  core::Runtime* runtime = nullptr;
  de::ObjectDe* de = nullptr;
  core::CastIntegrator* integrator = nullptr;
  de::ObjectStore* session_store = nullptr;
  de::ObjectStore* subscriber_store = nullptr;
  de::ObjectStore* bearer_store = nullptr;
  de::ObjectStore* address_store = nullptr;

  /// Runs one attach for `imsi` to completion (state "active") or
  /// rejection (state "rejected"). Returns the final attach object.
  common::Result<common::Value> attach_sync(const std::string& imsi);
  /// Clears per-attach state for the next UE.
  void reset_attach_state();
};

EpcKnactorApp build_epc_knactor_app(core::Runtime& runtime,
                                    EpcOptions options = {});

/// The API-centric baseline.
class EpcRpcApp {
 public:
  EpcRpcApp(sim::VirtualClock& clock, EpcOptions options = {});

  /// Issues an Attach RPC; returns {imsi, bearer_id, ip, qos} or an error
  /// (e.g. unknown/blocked subscriber).
  common::Result<common::Value> attach_sync(const std::string& imsi);

  [[nodiscard]] net::SimNetwork& network() { return *network_; }

 private:
  sim::VirtualClock& clock_;
  EpcOptions options_;
  std::unique_ptr<net::SimNetwork> network_;
  net::SchemaPool pool_;
  net::RpcRegistry registry_;
  std::vector<std::unique_ptr<net::RpcServer>> servers_;
  std::vector<std::unique_ptr<net::RpcChannel>> channels_;
  std::vector<net::ServiceDescriptor> services_;
  sim::Rng sim_rng_{51};
  int bearer_seq_ = 0;
  int ip_seq_ = 0;
};

/// The subscribers both deployments are provisioned with:
///   001010000000001  plan=premium  allowed
///   001010000000002  plan=basic    allowed
///   001010000000666  plan=basic    blocked
std::vector<std::string> epc_known_imsis();

}  // namespace knactor::apps
