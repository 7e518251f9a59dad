#include "core/trace.h"

#include <algorithm>

namespace knactor::core {

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t parent) {
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = name;
  span.start = clock_.now();
  span.end = -1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::annotate(std::uint64_t span_id, const std::string& key,
                      const std::string& value) {
  if (Span* span = find(span_id)) span->attributes[key] = value;
}

void Tracer::end(std::uint64_t span_id) {
  if (Span* span = find(span_id)) span->end = clock_.now();
}

Span* Tracer::find(std::uint64_t span_id) {
  // begin() and merge() stamp ids from the one increasing counter and
  // append, and clear() does not reset it, so spans_ is sorted by id.
  auto it = std::lower_bound(
      spans_.begin(), spans_.end(), span_id,
      [](const Span& span, std::uint64_t id) { return span.id < id; });
  return it != spans_.end() && it->id == span_id ? &*it : nullptr;
}

std::vector<Span> Tracer::by_name(const std::string& name) const {
  std::vector<Span> out;
  for (const auto& span : spans_) {
    if (span.name == name && span.end >= span.start) out.push_back(span);
  }
  return out;
}

std::vector<Span> Tracer::by_attribute(const std::string& key,
                                       const std::string& value) const {
  std::vector<Span> out;
  for (const auto& span : spans_) {
    if (span.end < span.start) continue;
    auto it = span.attributes.find(key);
    if (it != span.attributes.end() && it->second == value) {
      out.push_back(span);
    }
  }
  return out;
}

sim::SimTime Tracer::total_duration(const std::string& name) const {
  sim::SimTime total = 0;
  for (const auto& span : spans_) {
    if (span.name == name && span.end >= span.start) {
      total += span.duration();
    }
  }
  return total;
}

}  // namespace knactor::core
