#include "sim/fault.h"

#include <algorithm>
#include <sstream>

namespace knactor::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kNodeDown:
      return "node_down";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestart:
      return "restart";
  }
  return "unknown";
}

std::string FaultRecord::to_string() const {
  std::ostringstream out;
  out << time << " " << fault_kind_name(kind) << " " << src;
  if (!dst.empty()) out << "->" << dst;
  if (message_id != 0) out << " msg#" << message_id;
  if (!detail.empty()) out << " [" << detail << "]";
  return out.str();
}

FaultPlan& FaultPlan::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

FaultPlan& FaultPlan::with_loss(double p) {
  links.loss = p;
  return *this;
}

FaultPlan& FaultPlan::with_duplication(double p) {
  links.duplicate = p;
  return *this;
}

FaultPlan& FaultPlan::with_reorder(double p, SimTime max_delay) {
  links.reorder = p;
  links.reorder_delay = max_delay;
  return *this;
}

FaultPlan& FaultPlan::add_flap(std::string a, std::string b, SimTime start,
                               SimTime duration) {
  flaps.push_back({std::move(a), std::move(b), start, start + duration});
  return *this;
}

FaultPlan& FaultPlan::add_crash(std::string target, SimTime start,
                                SimTime duration) {
  crashes.push_back({std::move(target), start, start + duration});
  return *this;
}

bool FaultPlan::link_down(const std::string& a, const std::string& b,
                          SimTime now) const {
  for (const auto& w : flaps) {
    if (now < w.start || now >= w.end) continue;
    if ((w.a == a && w.b == b) || (w.a == b && w.b == a)) return true;
  }
  return false;
}

bool FaultPlan::node_down(const std::string& name, SimTime now) const {
  for (const auto& w : crashes) {
    if (w.target == name && now >= w.start && now < w.end) return true;
  }
  return false;
}

SimTime FaultPlan::last_window_end() const {
  SimTime end = 0;
  for (const auto& w : flaps) end = std::max(end, w.end);
  for (const auto& w : crashes) end = std::max(end, w.end);
  return end;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomOptions& opts) {
  // Mix the seed so plan generation and in-network injection (which reseeds
  // from `plan.seed`) draw from unrelated streams.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL);
  FaultPlan plan;
  plan.seed = seed;
  plan.links.loss = rng.next_double() * opts.max_loss;
  plan.links.duplicate = rng.next_double() * opts.max_duplicate;
  plan.links.reorder = rng.next_double() * opts.max_reorder;
  plan.links.reorder_delay =
      1 + static_cast<SimTime>(rng.next_double() *
                               static_cast<double>(opts.max_reorder_delay));

  auto window_length = [&]() {
    const auto span = opts.max_window - opts.min_window;
    return opts.min_window +
           (span > 0 ? static_cast<SimTime>(
                           rng.next_below(static_cast<std::uint32_t>(span)))
                     : 0);
  };
  auto window_start = [&](SimTime length) {
    const SimTime latest = std::max<SimTime>(1, opts.horizon - length);
    return static_cast<SimTime>(
        rng.next_below(static_cast<std::uint32_t>(latest)));
  };

  if (!opts.flap_links.empty() && opts.max_flaps > 0) {
    const int n = static_cast<int>(
        rng.next_below(static_cast<std::uint32_t>(opts.max_flaps) + 1));
    for (int i = 0; i < n; ++i) {
      const auto& link = opts.flap_links[rng.next_below(
          static_cast<std::uint32_t>(opts.flap_links.size()))];
      const SimTime len = window_length();
      plan.add_flap(link.first, link.second, window_start(len), len);
    }
  }
  if (!opts.crash_targets.empty() && opts.max_crashes > 0) {
    const int n = static_cast<int>(
        rng.next_below(static_cast<std::uint32_t>(opts.max_crashes) + 1));
    for (int i = 0; i < n; ++i) {
      const auto& target = opts.crash_targets[rng.next_below(
          static_cast<std::uint32_t>(opts.crash_targets.size()))];
      const SimTime len = window_length();
      plan.add_crash(target, window_start(len), len);
    }
  }
  return plan;
}

common::Value FaultPlan::to_value() const {
  using common::Value;
  Value v = Value::object();
  v.set("seed", Value(static_cast<std::int64_t>(seed)));
  v.set("loss", Value(links.loss));
  v.set("duplicate", Value(links.duplicate));
  v.set("reorder", Value(links.reorder));
  v.set("reorder_delay_us",
        Value(static_cast<std::int64_t>(links.reorder_delay)));
  Value fl = Value::array();
  for (const auto& w : flaps) {
    Value e = Value::object();
    e.set("a", Value(w.a));
    e.set("b", Value(w.b));
    e.set("start_us", Value(static_cast<std::int64_t>(w.start)));
    e.set("end_us", Value(static_cast<std::int64_t>(w.end)));
    fl.as_array().push_back(std::move(e));
  }
  v.set("flaps", std::move(fl));
  Value cr = Value::array();
  for (const auto& w : crashes) {
    Value e = Value::object();
    e.set("target", Value(w.target));
    e.set("start_us", Value(static_cast<std::int64_t>(w.start)));
    e.set("end_us", Value(static_cast<std::int64_t>(w.end)));
    cr.as_array().push_back(std::move(e));
  }
  v.set("crashes", std::move(cr));
  return v;
}

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "FaultPlan{seed=" << seed << " loss=" << links.loss
      << " dup=" << links.duplicate << " reorder=" << links.reorder
      << " flaps=" << flaps.size() << " crashes=" << crashes.size() << "}";
  return out.str();
}

bool CrashPointPlan::fires(std::string_view point,
                           std::uint64_t occurrence) const {
  // FNV-1a over (seed, point, occurrence) — platform-stable, so a seed's
  // crash schedule is identical everywhere.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(seed_);
  for (char c : point) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  mix(occurrence);
  // Top 53 bits → [0, 1): double-exact, no modulo bias worth caring about.
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return u < probability_;
}

bool CrashPointPlan::next(std::string_view point) {
  auto it = counts_.find(point);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(point), 0).first;
  }
  return fires(point, it->second++);
}

}  // namespace knactor::sim
