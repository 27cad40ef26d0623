#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <ostream>

#include "obs/report.hpp"  // SchemaError

namespace kami::obs {

void FlightRecorder::record(RequestTrace trace) {
  const bool error = trace.is_error();
  std::lock_guard lock(mu_);
  std::deque<Entry>& store = error ? errors_ : completed_;
  const std::size_t capacity = error ? kErrorCapacity : kCompletedCapacity;
  store.emplace_back(next_seq_++, std::move(trace));
  while (store.size() > capacity) store.pop_front();
}

std::size_t FlightRecorder::completed_count() const {
  std::lock_guard lock(mu_);
  return completed_.size();
}

std::size_t FlightRecorder::error_count() const {
  std::lock_guard lock(mu_);
  return errors_.size();
}

std::size_t FlightRecorder::size() const {
  std::lock_guard lock(mu_);
  return completed_.size() + errors_.size();
}

std::vector<RequestTrace> FlightRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<const Entry*> merged;
  merged.reserve(completed_.size() + errors_.size());
  for (const Entry& e : completed_) merged.push_back(&e);
  for (const Entry& e : errors_) merged.push_back(&e);
  std::sort(merged.begin(), merged.end(),
            [](const Entry* a, const Entry* b) { return a->first < b->first; });
  std::vector<RequestTrace> out;
  out.reserve(merged.size());
  for (const Entry* e : merged) out.push_back(e->second);
  return out;
}

Json FlightRecorder::to_json() const {
  Json doc = Json::object();
  doc.set("schema", kFlightSchemaName);
  doc.set("schema_version", kFlightSchemaVersion);
  {
    std::lock_guard lock(mu_);
    doc.set("completed_capacity", static_cast<double>(kCompletedCapacity));
    doc.set("error_capacity", static_cast<double>(kErrorCapacity));
    doc.set("recorded", static_cast<double>(next_seq_));
  }
  Json traces = Json::array();
  for (const RequestTrace& t : snapshot()) traces.push_back(t.to_json());
  doc.set("traces", std::move(traces));
  return doc;
}

void FlightRecorder::dump(std::ostream& os) const {
  to_json().dump(os, 2);
  os << '\n';
}

std::vector<RequestTrace> FlightRecorder::traces_from_json(const Json& doc) {
  if (!doc.is_object()) throw SchemaError("flight dump must be a JSON object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kFlightSchemaName)
    throw SchemaError(std::string("not a ") + kFlightSchemaName + " document");
  const Json* version = doc.find("schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->as_number()) != kFlightSchemaVersion)
    throw SchemaError("unsupported flight schema_version");
  std::vector<RequestTrace> out;
  for (const Json& jt : doc.at("traces").as_array())
    out.push_back(RequestTrace::from_json(jt));
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  completed_.clear();
  errors_.clear();
  next_seq_ = 0;
}

}  // namespace kami::obs
