// Incremental Cast differential suite. Cast keeps a persistent view of each
// aliased store and re-evaluates only the mapping instances whose inputs
// changed since the last pass; everything else replays a memoized outcome.
// Two checks pin that this changes nothing observable:
//
//   * write logs: fixed ride-hailing, retail and smart-home scripts must
//     reproduce, commit for commit, a log of every store write (store, key,
//     version, payload, commit time) captured from the full-recompute
//     integrator, plus its final pass and skip counters;
//   * full recompute: over 120 seeded random histories against a DXG that
//     exercises every read class (keyed by `it`, fixed keys, `this`, whole
//     alias, dynamic keys, comprehensions, the rate table), every instance
//     at every quiescent point is in sync or not ready when re-evaluated
//     from scratch over fresh list snapshots.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/retail_knactor.h"
#include "apps/ride_hailing.h"
#include "apps/smart_home.h"
#include "common/json.h"
#include "core/cast.h"
#include "core/runtime.h"
#include "de/object.h"
#include "expr/eval.h"
#include "sim/random.h"

namespace knactor {
namespace {

using common::Value;

// ---------------------------------------------------------------------------
// Write logs.
// ---------------------------------------------------------------------------

/// Records every commit to the given stores, in delivery order, as
/// "<commit time> <A|M|D> <store> <key> v<version> <payload json>".
class WriteLog {
 public:
  void watch(de::ObjectStore& store) {
    auto sub = store.subscribe("write-log", {}, [this](const de::WatchEvent& e) {
      const char* type = e.type == de::WatchEventType::kAdded      ? "A"
                         : e.type == de::WatchEventType::kModified ? "M"
                                                                   : "D";
      text_ += std::to_string(e.object.updated_at) + " " + type + " " +
               e.store + " " + e.object.key + " v" +
               std::to_string(e.object.version) + " " +
               (e.object.data ? common::to_json(*e.object.data) : "null") +
               "\n";
    });
    ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  }
  void note(const std::string& line) { text_ += line + "\n"; }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

std::string cast_counters(const core::CastIntegrator& cast) {
  const core::CastStats& s = cast.stats();
  return "passes=" + std::to_string(s.passes) +
         " written=" + std::to_string(s.fields_written) +
         " not_ready=" + std::to_string(s.fields_skipped_not_ready) +
         " errors=" + std::to_string(s.eval_errors);
}

/// Compares line by line so a mismatch names the first diverging commit;
/// the whole actual log is printed for re-capture.
void expect_log(const std::string& actual, const std::string& expected) {
  if (actual == expected) return;
  std::size_t line = 1;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    if (actual[at] == '\n') ++line;
    ++at;
  }
  ADD_FAILURE() << "write log diverges at line " << line
                << "\n--- actual log ---\n"
                << actual << "--- end ---";
}

std::string ride_hailing_log() {
  core::Runtime runtime;
  apps::RideHailingOptions options;
  options.zones = 6;
  options.drivers = 8;
  options.batch_window = 5 * sim::kMillisecond;
  apps::RideHailingApp app = apps::build_ride_hailing_app(runtime, options);
  WriteLog log;
  for (de::ObjectStore* store :
       {app.rides, app.zones, app.dispatch, app.drivers}) {
    log.watch(*store);
  }
  sim::VirtualClock& clock = runtime.clock();
  const sim::SimTime t0 = clock.now();
  for (std::uint64_t ride = 0; ride < 12; ++ride) {
    clock.schedule_at(t0 + static_cast<sim::SimTime>(ride) * 3 *
                               sim::kMillisecond,
                      [&app, ride] { app.submit_ride(100 + ride * 7); });
  }
  // A surge on a busy zone mid-stream re-quotes every ride in it.
  clock.schedule_at(t0 + 20 * sim::kMillisecond, [&app] {
    (void)app.zones->patch("ops", "zone/z1",
                           Value::object({{"surge", Value(2.5)}}),
                           [](common::Result<std::uint64_t>) {});
  });
  // A cancelled ride disappears from the driver set.
  clock.schedule_at(t0 + 45 * sim::kMillisecond, [&app] {
    app.rides->remove("ops", "ride/107", [](common::Status) {});
  });
  app.settle();
  log.note(cast_counters(*app.cast));
  return log.text();
}

std::string retail_log() {
  core::Runtime runtime;
  apps::RetailKnactorOptions options;
  options.full_dxg = true;
  apps::RetailKnactorApp app = apps::build_retail_knactor_app(runtime, options);
  WriteLog log;
  for (const char* name :
       {"knactor-checkout", "knactor-shipping", "knactor-payment",
        "knactor-email", "knactor-recommendation", "knactor-ad",
        "knactor-inventory", "knactor-frontend"}) {
    de::ObjectStore* store = app.de->store(name);
    if (store != nullptr) log.watch(*store);
  }
  auto first = app.place_order_sync(apps::sample_order(80.0));
  log.note(first.ok() ? "order 1 ok" : "order 1 " + first.error().to_string());
  app.reset_order_state();
  auto second = app.place_order_sync(apps::expensive_order());
  log.note(second.ok() ? "order 2 ok"
                       : "order 2 " + second.error().to_string());
  log.note(cast_counters(*app.integrator));
  return log.text();
}

std::string smart_home_log() {
  core::Runtime runtime;
  apps::SmartHomeKnactorApp app = apps::build_smart_home_knactor_app(runtime);
  WriteLog log;
  for (de::ObjectStore* store :
       {app.house_store, app.lamp_store, app.motion_store}) {
    log.watch(*store);
  }
  for (bool motion : {true, false, true, true, false}) {
    app.trigger_motion(motion);
    app.settle();
  }
  log.note(cast_counters(*app.cast));
  return log.text();
}

// Captured from the full-recompute integrator (every pass re-copied every
// store and re-evaluated every instance).
constexpr const char* kRideHailingLog = R"log(5773 A ride-requests ride/100 v7 {"rider":"rider-100","zone":"z1","zoneKey":"zone/z1","fare":5.0,"status":"requested"}
5799 M ride-zones zone/z1 v8 {"demand":1,"surge":1.0}
8757 A ride-requests ride/107 v9 {"rider":"rider-107","zone":"z2","zoneKey":"zone/z2","fare":12.0,"status":"requested"}
8784 M ride-zones zone/z2 v10 {"demand":1,"surge":1.0}
9018 A ride-dispatch ride/100 v11 {"zone":"z1","rider":"rider-100","surge":1.0,"quoted":5.0}
11856 A ride-requests ride/114 v12 {"rider":"rider-114","zone":"z0","zoneKey":"zone/z0","fare":19.0,"status":"requested"}
11894 M ride-zones zone/z0 v13 {"demand":1,"surge":1.0}
11967 A ride-drivers driver/driver-1 v14 {"lastRide":"ride/100"}
12056 M ride-dispatch ride/100 v15 {"zone":"z1","rider":"rider-100","surge":1.0,"quoted":5.0,"driver":"driver-1","status":"assigned"}
12108 A ride-dispatch ride/107 v16 {"zone":"z2","rider":"rider-107","surge":1.0,"quoted":12.0}
14742 M ride-zones zone/z1 v17 {"demand":2,"surge":1.0}
14747 A ride-requests ride/121 v18 {"rider":"rider-121","zone":"z1","zoneKey":"zone/z1","fare":6.0,"status":"requested"}
15001 M ride-requests ride/100 v19 {"rider":"rider-100","zone":"z1","zoneKey":"zone/z1","fare":5.0,"status":"assigned","driver":"driver-1"}
15066 A ride-drivers driver/driver-4 v20 {"lastRide":"ride/107"}
15075 M ride-dispatch ride/107 v21 {"zone":"z2","rider":"rider-107","surge":1.0,"quoted":12.0,"driver":"driver-4","status":"assigned"}
15261 A ride-dispatch ride/114 v22 {"zone":"z0","rider":"rider-114","surge":1.0,"quoted":19.0}
17708 M ride-zones zone/z2 v23 {"demand":2,"surge":1.0}
17788 A ride-requests ride/128 v24 {"rider":"rider-128","zone":"z2","zoneKey":"zone/z2","fare":13.0,"status":"requested"}
18150 M ride-dispatch ride/114 v25 {"zone":"z0","rider":"rider-114","surge":1.0,"quoted":19.0,"driver":"driver-4","status":"assigned"}
18169 A ride-dispatch ride/121 v26 {"zone":"z1","rider":"rider-121","surge":1.0,"quoted":6.0}
18390 M ride-requests ride/107 v27 {"rider":"rider-107","zone":"z2","zoneKey":"zone/z2","fare":12.0,"status":"assigned","driver":"driver-4"}
18393 M ride-drivers driver/driver-4 v28 {"lastRide":"ride/114"}
20757 A ride-requests ride/135 v29 {"rider":"rider-135","zone":"z0","zoneKey":"zone/z0","fare":20.0,"status":"requested"}
20830 M ride-zones zone/z0 v30 {"demand":2,"surge":1.0}
21203 A ride-drivers driver/driver-0 v31 {"lastRide":"ride/121"}
21334 M ride-dispatch ride/121 v32 {"zone":"z1","rider":"rider-121","surge":1.0,"quoted":6.0,"driver":"driver-0","status":"assigned"}
21415 M ride-requests ride/114 v33 {"rider":"rider-114","zone":"z0","zoneKey":"zone/z0","fare":19.0,"status":"assigned","driver":"driver-4"}
21460 A ride-dispatch ride/128 v34 {"zone":"z2","rider":"rider-128","surge":1.0,"quoted":13.0}
23755 M ride-zones zone/z1 v35 {"demand":3,"surge":1.0}
23889 A ride-requests ride/142 v36 {"rider":"rider-142","zone":"z1","zoneKey":"zone/z1","fare":7.0,"status":"requested"}
24260 A ride-drivers driver/driver-3 v37 {"lastRide":"ride/128"}
24379 M ride-dispatch ride/128 v38 {"zone":"z2","rider":"rider-128","surge":1.0,"quoted":13.0,"driver":"driver-3","status":"assigned"}
24474 M ride-requests ride/121 v39 {"rider":"rider-121","zone":"z1","zoneKey":"zone/z1","fare":6.0,"status":"assigned","driver":"driver-0"}
24633 A ride-dispatch ride/135 v40 {"zone":"z0","rider":"rider-135","surge":1.0,"quoted":20.0}
25638 M ride-zones zone/z1 v41 {"demand":3,"surge":2.5}
26753 A ride-requests ride/149 v42 {"rider":"rider-149","zone":"z2","zoneKey":"zone/z2","fare":14.0,"status":"requested"}
26796 M ride-zones zone/z2 v43 {"demand":3,"surge":1.0}
27454 A ride-dispatch ride/142 v44 {"zone":"z1","rider":"rider-142","surge":1.0,"quoted":7.0}
27528 M ride-dispatch ride/135 v45 {"zone":"z0","rider":"rider-135","surge":1.0,"quoted":20.0,"driver":"driver-1","status":"assigned"}
27696 M ride-drivers driver/driver-1 v47 {"lastRide":"ride/135"}
27684 M ride-requests ride/128 v46 {"rider":"rider-128","zone":"z2","zoneKey":"zone/z2","fare":13.0,"status":"assigned","driver":"driver-3"}
28483 M ride-zones zone/z1 v48 {"demand":3,"surge":1.0}
29870 A ride-requests ride/156 v49 {"rider":"rider-156","zone":"z0","zoneKey":"zone/z0","fare":21.0,"status":"requested"}
29995 M ride-zones zone/z0 v50 {"demand":3,"surge":1.0}
30348 M ride-dispatch ride/142 v51 {"zone":"z1","rider":"rider-142","surge":1.0,"quoted":7.0,"driver":"driver-7","status":"assigned"}
30379 A ride-drivers driver/driver-7 v52 {"lastRide":"ride/142"}
30491 M ride-dispatch ride/100 v53 {"zone":"z1","rider":"rider-100","surge":2.5,"quoted":12.5,"driver":"driver-1","status":"assigned"}
30619 A ride-dispatch ride/149 v54 {"zone":"z2","rider":"rider-149","surge":1.0,"quoted":14.0}
30629 M ride-requests ride/135 v55 {"rider":"rider-135","zone":"z0","zoneKey":"zone/z0","fare":20.0,"status":"assigned","driver":"driver-1"}
30645 M ride-dispatch ride/121 v56 {"zone":"z1","rider":"rider-121","surge":2.5,"quoted":15.0,"driver":"driver-0","status":"assigned"}
30658 M ride-dispatch ride/142 v57 {"zone":"z1","rider":"rider-142","surge":2.5,"quoted":17.5,"driver":"driver-7","status":"assigned"}
32755 M ride-zones zone/z1 v58 {"demand":4,"surge":1.0}
32788 A ride-requests ride/163 v59 {"rider":"rider-163","zone":"z1","zoneKey":"zone/z1","fare":8.0,"status":"requested"}
33568 M ride-dispatch ride/149 v60 {"zone":"z2","rider":"rider-149","surge":1.0,"quoted":14.0,"driver":"driver-2","status":"assigned"}
33571 M ride-requests ride/142 v61 {"rider":"rider-142","zone":"z1","zoneKey":"zone/z1","fare":7.0,"status":"assigned","driver":"driver-7"}
33629 M ride-dispatch ride/121 v62 {"zone":"z1","rider":"rider-121","surge":1.0,"quoted":6.0,"driver":"driver-0","status":"assigned"}
33691 M ride-dispatch ride/142 v63 {"zone":"z1","rider":"rider-142","surge":1.0,"quoted":7.0,"driver":"driver-7","status":"assigned"}
33720 A ride-dispatch ride/156 v64 {"zone":"z0","rider":"rider-156","surge":1.0,"quoted":21.0}
33778 M ride-dispatch ride/100 v65 {"zone":"z1","rider":"rider-100","surge":1.0,"quoted":5.0,"driver":"driver-1","status":"assigned"}
33818 A ride-drivers driver/driver-2 v66 {"lastRide":"ride/149"}
35692 M ride-zones zone/z2 v67 {"demand":4,"surge":1.0}
35783 A ride-requests ride/170 v68 {"rider":"rider-170","zone":"z2","zoneKey":"zone/z2","fare":15.0,"status":"requested"}
36660 M ride-dispatch ride/156 v69 {"zone":"z0","rider":"rider-156","surge":1.0,"quoted":21.0,"driver":"driver-6","status":"assigned"}
36731 A ride-drivers driver/driver-6 v70 {"lastRide":"ride/156"}
36807 A ride-dispatch ride/163 v71 {"zone":"z1","rider":"rider-163","surge":1.0,"quoted":8.0}
36887 M ride-requests ride/149 v72 {"rider":"rider-149","zone":"z2","zoneKey":"zone/z2","fare":14.0,"status":"assigned","driver":"driver-2"}
38779 A ride-requests ride/177 v73 {"rider":"rider-177","zone":"z0","zoneKey":"zone/z0","fare":22.0,"status":"requested"}
38800 M ride-zones zone/z0 v74 {"demand":4,"surge":1.0}
39785 M ride-dispatch ride/163 v75 {"zone":"z1","rider":"rider-163","surge":1.0,"quoted":8.0,"driver":"driver-2","status":"assigned"}
39844 M ride-drivers driver/driver-2 v77 {"lastRide":"ride/163"}
39839 A ride-dispatch ride/170 v76 {"zone":"z2","rider":"rider-170","surge":1.0,"quoted":15.0}
39847 M ride-requests ride/156 v78 {"rider":"rider-156","zone":"z0","zoneKey":"zone/z0","fare":21.0,"status":"assigned","driver":"driver-6"}
42603 M ride-drivers driver/driver-6 v79 {"lastRide":"ride/170"}
42769 M ride-dispatch ride/170 v80 {"zone":"z2","rider":"rider-170","surge":1.0,"quoted":15.0,"driver":"driver-6","status":"assigned"}
42790 A ride-dispatch ride/177 v81 {"zone":"z0","rider":"rider-177","surge":1.0,"quoted":22.0}
42934 M ride-requests ride/163 v82 {"rider":"rider-163","zone":"z1","zoneKey":"zone/z1","fare":8.0,"status":"assigned","driver":"driver-2"}
45659 M ride-drivers driver/driver-7 v83 {"lastRide":"ride/177"}
45809 M ride-dispatch ride/177 v84 {"zone":"z0","rider":"rider-177","surge":1.0,"quoted":22.0,"driver":"driver-7","status":"assigned"}
45822 M ride-requests ride/170 v85 {"rider":"rider-170","zone":"z2","zoneKey":"zone/z2","fare":15.0,"status":"assigned","driver":"driver-6"}
48851 M ride-requests ride/177 v86 {"rider":"rider-177","zone":"z0","zoneKey":"zone/z0","fare":22.0,"status":"assigned","driver":"driver-7"}
18390 D ride-requests ride/107 v27 {"rider":"rider-107","zone":"z2","zoneKey":"zone/z2","fare":12.0,"status":"assigned","driver":"driver-4"}
passes=17 written=84 not_ready=48 errors=0
)log";
constexpr const char* kRetailLog = R"log(24537 A knactor-checkout order v9 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"pending"}
27527 M knactor-checkout order v10 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":80.0}
27681 A knactor-inventory state v11 {"lastOrder":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}]}
27739 M knactor-frontend state v12 {"userID":"user-1","orderStatus":"pending"}
27797 A knactor-recommendation state v13 {"lastItems":["keyboard","mouse"]}
27886 A knactor-email state v14 {"recipient":"user-1@example.com"}
27898 A knactor-payment state v15 {"currency":"USD"}
27910 A knactor-ad state v16 {"keywords":["keyboard","mouse"]}
27936 A knactor-shipping state v17 {"items":["keyboard","mouse"],"addr":"1 Market St, San Francisco, CA","method":"ground"}
30721 M knactor-recommendation state v18 {"lastItems":["keyboard","mouse"],"suggestions":["like:keyboard","like:mouse"]}
30793 M knactor-ad state v19 {"keywords":["keyboard","mouse"],"creative":"promo:keyboard"}
30867 M knactor-payment state v20 {"currency":"USD","amount":80.0}
31046 M knactor-shipping state v21 {"items":["keyboard","mouse"],"addr":"1 Market St, San Francisco, CA","method":"ground","quote":{"price":25.0,"currency":"USD"}}
33778 M knactor-checkout order v22 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":80.0,"shippingCost":25.0}
33808 M knactor-inventory product/keyboard v23 {"stock":99}
36359 M knactor-payment state v24 {"currency":"USD","amount":80.0,"id":"pay-1"}
36761 M knactor-checkout order v25 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":105.0,"shippingCost":25.0}
39459 M knactor-checkout order v26 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":105.0,"shippingCost":25.0,"paymentID":"pay-1"}
39677 M knactor-inventory product/mouse v27 {"stock":98}
39689 M knactor-payment state v28 {"currency":"USD","amount":105.0,"id":"pay-1"}
42463 M knactor-checkout order v29 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"paid","totalCost":105.0,"shippingCost":25.0,"paymentID":"pay-1"}
42512 M knactor-inventory state v30 {"lastOrder":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"applied":true}
45860 M knactor-frontend state v31 {"userID":"user-1","orderStatus":"paid"}
482548 M knactor-shipping state v32 {"items":["keyboard","mouse"],"addr":"1 Market St, San Francisco, CA","method":"ground","quote":{"price":25.0,"currency":"USD"},"id":"track-1"}
485725 M knactor-email state v33 {"recipient":"user-1@example.com","trackingID":"track-1"}
485752 M knactor-checkout order v34 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"paid","totalCost":105.0,"shippingCost":25.0,"paymentID":"pay-1","trackingID":"track-1"}
488717 M knactor-email state v35 {"recipient":"user-1@example.com","trackingID":"track-1","sent":true}
488789 M knactor-checkout order v36 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"shipped","totalCost":105.0,"shippingCost":25.0,"paymentID":"pay-1","trackingID":"track-1"}
492054 M knactor-frontend state v37 {"userID":"user-1","orderStatus":"shipped"}
order 1 ok
488789 D knactor-checkout order v36 {"items":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"address":"1 Market St, San Francisco, CA","cost":80.0,"currency":"USD","email":"user-1@example.com","status":"shipped","totalCost":105.0,"shippingCost":25.0,"paymentID":"pay-1","trackingID":"track-1"}
39689 D knactor-payment state v28 {"currency":"USD","amount":105.0,"id":"pay-1"}
482548 D knactor-shipping state v32 {"items":["keyboard","mouse"],"addr":"1 Market St, San Francisco, CA","method":"ground","quote":{"price":25.0,"currency":"USD"},"id":"track-1"}
488717 D knactor-email state v35 {"recipient":"user-1@example.com","trackingID":"track-1","sent":true}
30721 D knactor-recommendation state v18 {"lastItems":["keyboard","mouse"],"suggestions":["like:keyboard","like:mouse"]}
30793 D knactor-ad state v19 {"keywords":["keyboard","mouse"],"creative":"promo:keyboard"}
42512 D knactor-inventory state v30 {"lastOrder":[{"name":"keyboard","qty":1},{"name":"mouse","qty":2}],"applied":true}
514787 A knactor-checkout order v38 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"pending"}
517590 M knactor-checkout order v39 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":1600.0}
517917 A knactor-inventory state v40 {"lastOrder":[{"name":"laptop","qty":1}]}
517984 A knactor-shipping state v41 {"items":["laptop"],"addr":"1 Market St, San Francisco, CA","method":"air"}
518072 A knactor-ad state v44 {"keywords":["laptop"]}
518063 A knactor-recommendation state v42 {"lastItems":["laptop"]}
518064 A knactor-email state v43 {"recipient":"user-1@example.com"}
518121 A knactor-payment state v45 {"currency":"USD"}
518143 M knactor-frontend state v46 {"userID":"user-1","orderStatus":"pending"}
521053 M knactor-ad state v47 {"keywords":["laptop"],"creative":"promo:laptop"}
521064 M knactor-recommendation state v48 {"lastItems":["laptop"],"suggestions":["like:laptop"]}
521199 M knactor-shipping state v49 {"items":["laptop"],"addr":"1 Market St, San Francisco, CA","method":"air","quote":{"price":15.0,"currency":"USD"}}
521219 M knactor-payment state v50 {"currency":"USD","amount":1600.0}
523818 M knactor-inventory product/laptop v51 {"stock":99}
524340 M knactor-checkout order v52 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":1600.0,"shippingCost":15.0}
525969 M knactor-payment state v53 {"currency":"USD","amount":1600.0,"id":"pay-2"}
527274 M knactor-checkout order v54 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":1615.0,"shippingCost":15.0}
529283 M knactor-checkout order v55 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"pending","totalCost":1615.0,"shippingCost":15.0,"paymentID":"pay-2"}
529908 M knactor-inventory state v56 {"lastOrder":[{"name":"laptop","qty":1}],"applied":true}
532277 M knactor-checkout order v57 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"paid","totalCost":1615.0,"shippingCost":15.0,"paymentID":"pay-2"}
532391 M knactor-payment state v58 {"currency":"USD","amount":1615.0,"id":"pay-2"}
535400 M knactor-frontend state v59 {"userID":"user-1","orderStatus":"paid"}
969600 M knactor-shipping state v60 {"items":["laptop"],"addr":"1 Market St, San Francisco, CA","method":"air","quote":{"price":15.0,"currency":"USD"},"id":"track-2"}
972853 M knactor-email state v61 {"recipient":"user-1@example.com","trackingID":"track-2"}
972896 M knactor-checkout order v62 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"paid","totalCost":1615.0,"shippingCost":15.0,"paymentID":"pay-2","trackingID":"track-2"}
975880 M knactor-email state v63 {"recipient":"user-1@example.com","trackingID":"track-2","sent":true}
975905 M knactor-checkout order v64 {"items":[{"name":"laptop","qty":1}],"address":"1 Market St, San Francisco, CA","cost":1600.0,"currency":"USD","email":"user-1@example.com","status":"shipped","totalCost":1615.0,"shippingCost":15.0,"paymentID":"pay-2","trackingID":"track-2"}
979042 M knactor-frontend state v65 {"userID":"user-1","orderStatus":"shipped"}
order 2 ok
passes=35 written=34 not_ready=86 errors=0
)log";
constexpr const char* kSmartHomeLog = R"log(16427 M knactor-motion state v6 {"sensitivity":5,"triggered":true}
19521 M knactor-house state v7 {"brightness":10,"motion":true,"kwh":0.0}
22219 M knactor-house state v8 {"brightness":90,"motion":true,"kwh":0.0}
25479 M knactor-lamp state v9 {"intensity":90}
30497 M knactor-motion state v10 {"sensitivity":5,"triggered":false}
33907 M knactor-house state v11 {"brightness":90,"motion":false,"kwh":0.0}
36715 M knactor-house state v12 {"brightness":10,"motion":false,"kwh":0.0}
39909 M knactor-lamp state v13 {"intensity":10}
44137 M knactor-motion state v14 {"sensitivity":5,"triggered":true}
47338 M knactor-house state v15 {"brightness":10,"motion":true,"kwh":0.0}
50199 M knactor-house state v16 {"brightness":90,"motion":true,"kwh":0.0}
53508 M knactor-lamp state v17 {"intensity":90}
59013 M knactor-motion state v18 {"sensitivity":5,"triggered":true}
71076 M knactor-motion state v19 {"sensitivity":5,"triggered":false}
74264 M knactor-house state v20 {"brightness":90,"motion":false,"kwh":0.0}
77295 M knactor-house state v21 {"brightness":10,"motion":false,"kwh":0.0}
80779 M knactor-lamp state v22 {"intensity":10}
passes=28 written=9 not_ready=3 errors=0
)log";

TEST(CastWriteLog, RideHailingScript) {
  expect_log(ride_hailing_log(), kRideHailingLog);
}

TEST(CastWriteLog, RetailScript) { expect_log(retail_log(), kRetailLog); }

TEST(CastWriteLog, SmartHomeScript) {
  expect_log(smart_home_log(), kSmartHomeLog);
}

// ---------------------------------------------------------------------------
// Full recompute at every quiescent point.
// ---------------------------------------------------------------------------

// Every read class: `it`-keyed (fare, tags), a dynamic key (surge), a
// dynamic key in a comprehension whose loop variable shadows `it` (peer),
// fixed keys through the default-object merge (base, label), `this`
// (doubled), whole aliases (zones, total, count, and the order-sensitive
// zone_keys, result_keys), the rate table (local), and a non-fan-out
// target that reads another target whole.
constexpr const char* kEveryReadClassDxg = R"(Input:
  R: requests
  Z: zones
  X: results
  G: globals
DXG:
  X.*:
    $for: R req/
    fare: get(R, it).fare
    surge: 'get(Z, get(R, it).zone).surge'
    quoted: 'R[it].fare * get(Z, get(R, it).zone, {"surge": 0}).surge'
    base: Z.base
    label: 'get(G, "label")'
    doubled: this.fare * 2
    zones: len(keys(Z))
    tags: '[t + "!" for t in get(R, it).tags]'
    peer: 'sum([get(R, it).fare for it in get(R, it).peers if get(R, it)])'
    local: 'currency_convert(get(R, it).fare, "USD", get(G, "cur"))'
  G:
    total: 'sum([get(X, k).fare for k in keys(X) if get(X, k).fare])'
    count: len(keys(R))
    zone_keys: keys(Z)
    result_keys: keys(X)
)";

/// The alias value a full recompute reads: objects by key, then the
/// default object's fields merged at top level where no object shadows
/// them (the semantics every Cast pass must reproduce).
Value fresh_alias_value(de::ObjectStore& store) {
  auto objects = store.list_sync("checker", "");
  EXPECT_TRUE(objects.ok());
  Value out = Value::object();
  if (!objects.ok()) return out;
  for (const auto& obj : objects.value()) out.set(obj.key, obj.data_copy());
  const Value* def = out.get("state");
  if (def != nullptr && def->is_object()) {
    Value fields = *def;
    for (const auto& [k, v] : fields.as_object()) {
      if (out.get(k) == nullptr) out.set(k, v);
    }
  }
  return out;
}

bool same_number_or_value(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) return a.as_number() == b.as_number();
  return a == b;
}

/// Re-evaluates every mapping instance from fresh list snapshots and
/// returns a description of each one that is neither in sync nor not
/// ready.
std::vector<std::string> full_recompute_mismatches(
    const core::Dxg& dxg, const std::map<std::string, de::ObjectStore*>& stores) {
  std::map<std::string, Value> aliases;
  for (const auto& [alias, store] : stores) {
    aliases[alias] = fresh_alias_value(*store);
  }
  std::vector<std::string> out;
  const Value empty = Value::object();
  auto check = [&](const core::DxgMapping& mapping, const std::string& target,
                   const std::string* it) {
    expr::MapEnv env;
    for (const auto& [alias, value] : aliases) env.bind(alias, value);
    const Value* obj = aliases[mapping.target_alias].get(target);
    const Value& self = obj != nullptr && obj->is_object() ? *obj : empty;
    env.bind("this", self);
    if (it != nullptr) env.bind("it", Value(*it));
    auto desired = expr::evaluate(*mapping.compiled, env,
                                  expr::FunctionRegistry::builtins());
    const std::string where = mapping.target_alias + "." + target + "." +
                              mapping.field;
    if (!desired.ok()) {
      out.push_back(where + ": " + desired.error().to_string());
      return;
    }
    if (desired.value().is_null()) return;  // not ready
    const Value* current = self.get(mapping.field);
    if (current == nullptr || !same_number_or_value(*current, desired.value())) {
      out.push_back(where + ": want " + common::to_json(desired.value()) +
                    ", have " + (current ? common::to_json(*current) : "none"));
    }
  };
  for (const auto& mapping : dxg.mappings()) {
    if (!mapping.fan_out) {
      check(mapping, mapping.target_object, nullptr);
      continue;
    }
    for (const auto& [key, value] : aliases[mapping.driver_alias].as_object()) {
      if (key.rfind(mapping.driver_prefix, 0) == 0 &&
          stores.at(mapping.driver_alias)->peek(key) != nullptr) {
        check(mapping, key, &key);
      }
    }
  }
  return out;
}

const std::map<std::string, double>& default_rates() {
  static const std::map<std::string, double> rates = {
      {"USD", 1.0},  {"EUR", 0.92}, {"GBP", 0.79}, {"JPY", 157.0},
      {"CAD", 1.37}, {"CHF", 0.90}, {"CNY", 7.25}, {"AUD", 1.50},
  };
  return rates;
}

/// One seeded random history. Returns the number of quiescent points
/// checked.
int run_seed(std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::VirtualClock clock;
  de::ObjectDeProfile profile = de::ObjectDeProfile::redis();
  de::ObjectDe de(clock, profile);
  std::map<std::string, de::ObjectStore*> stores = {
      {"R", &de.create_store("requests")},
      {"Z", &de.create_store("zones")},
      {"X", &de.create_store("results")},
      {"G", &de.create_store("globals")}};
  auto dxg = core::Dxg::parse(kEveryReadClassDxg);
  EXPECT_TRUE(dxg.ok()) << dxg.error().to_string();
  core::CastIntegrator::Options options;
  options.batch_window = rng.next_below(2) == 0 ? 0 : 3 * sim::kMillisecond;
  // Unused draw: dropping it would shift every later draw and so change
  // the seeded histories.
  (void)rng.next_below(2);
  core::CastIntegrator cast("prop", de, dxg.value(), stores, options);
  EXPECT_TRUE(cast.start().ok());

  auto key = [&](const char* prefix, std::uint32_t n) {
    return std::string(prefix) + std::to_string(rng.next_below(n));
  };
  auto request = [&] {
    Value tags = Value::array();
    for (std::uint32_t i = rng.next_below(3); i > 0; --i) {
      tags.as_array().push_back(Value(key("t", 4)));
    }
    Value peers = Value::array();
    for (std::uint32_t i = rng.next_below(3); i > 0; --i) {
      peers.as_array().push_back(Value(key("req/", 8)));
    }
    return Value::object(
        {{"fare", Value(static_cast<std::int64_t>(1 + rng.next_below(20)))},
         {"zone", Value(key("zone/", 4))},
         {"tags", std::move(tags)},
         {"peers", std::move(peers)}});
  };
  auto ignore = [](auto) {};
  int checked = 0;
  const int steps = 12 + static_cast<int>(rng.next_below(12));
  for (int step = 0; step < steps; ++step) {
    const int burst = 1 + static_cast<int>(rng.next_below(4));
    for (int b = 0; b < burst; ++b) {
      switch (rng.next_below(12)) {
        case 0:
        case 1:
        case 2:
          stores["R"]->put("svc", key("req/", 8), request(), ignore);
          break;
        case 3:
          // A patch creates a missing request; it still names a zone (a
          // request without one is an eval error, not a test input).
          stores["R"]->patch(
              "svc", key("req/", 8),
              Value::object({{"fare", Value(static_cast<std::int64_t>(
                                          1 + rng.next_below(20)))},
                             {"zone", Value(key("zone/", 4))}}),
              ignore);
          break;
        case 4:
          stores["R"]->remove("svc", key("req/", 8), ignore);
          break;
        case 5:
          stores["Z"]->put(
              "svc", key("zone/", 3),
              Value::object({{"surge", Value(1.0 + rng.next_below(4) * 0.5)}}),
              ignore);
          break;
        case 6:
          if (rng.next_below(3) == 0) {
            stores["Z"]->remove("svc", "state", ignore);
          } else {
            stores["Z"]->put(
                "svc", "state",
                Value::object({{"base", Value(static_cast<std::int64_t>(
                                            rng.next_below(5)))}}),
                ignore);
          }
          break;
        case 7:
          stores["G"]->patch(
              "svc", "state",
              Value::object(
                  {{"label", Value(key("L", 3))},
                   {"cur", Value(rng.next_below(2) == 0 ? "EUR" : "GBP")}}),
              ignore);
          break;
        case 8:
          // A target object deleted out from under the integrator.
          stores["X"]->remove("svc", key("req/", 8), ignore);
          break;
        case 9: {
          auto rates = default_rates();
          rates["EUR"] = 0.5 + rng.next_below(4) * 0.25;
          expr::FunctionRegistry::set_currency_rates(rates);
          // Rates are not a store: nothing wakes the integrator.
          stores["Z"]->patch("svc", "ticker",
                             Value::object({{"n", Value(static_cast<std::int64_t>(
                                                       step))}}),
                             ignore);
          break;
        }
        case 10:
          EXPECT_TRUE(cast.reconfigure_yaml(kEveryReadClassDxg).ok());
          break;
        default:
          // A DE outage: passes fail their lists and resync afterwards.
          de.set_available(false);
          clock.run_until(clock.now() + 2 * sim::kMillisecond);
          de.set_available(true);
          EXPECT_TRUE(cast.run_pass_sync().ok());
          break;
      }
    }
    clock.run_all();
    auto mismatches = full_recompute_mismatches(dxg.value(), stores);
    EXPECT_TRUE(mismatches.empty())
        << "seed " << seed << " step " << step << ": " << mismatches.front();
    if (!mismatches.empty()) break;
    ++checked;
  }
  expr::FunctionRegistry::set_currency_rates(default_rates());
  cast.stop();
  return checked;
}

TEST(CastIncrementalProperty, QuiescentStatesMatchFullRecompute) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    checked += run_seed(seed);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(checked, 120 * 12);
}

}  // namespace
}  // namespace knactor
