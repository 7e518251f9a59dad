// Test helper: runs a query plan over plain values. The executor works on
// copy-on-write handles (de/plan.h); tests that build their records and
// read their results as common::Value wrap and unwrap at this edge.
#pragma once

#include <utility>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/value.h"
#include "de/plan.h"

namespace knactor::de {

inline common::Result<std::vector<common::Value>> run_plan_values(
    const QueryPlan& plan, std::vector<common::Value> records) {
  std::vector<common::CowValue> wrapped;
  wrapped.reserve(records.size());
  for (auto& r : records) wrapped.emplace_back(std::move(r));
  KN_ASSIGN_OR_RETURN(std::vector<common::CowValue> out,
                      run_plan(plan, std::move(wrapped)));
  std::vector<common::Value> values;
  values.reserve(out.size());
  for (auto& r : out) values.push_back(r.take());
  return values;
}

}  // namespace knactor::de
