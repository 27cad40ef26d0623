#include "obs/trace_span.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/report.hpp"  // SchemaError

namespace kami::obs {

const std::string* Span::find_attr(std::string_view key) const noexcept {
  for (const auto& [k, v] : attrs)
    if (k == key) return &v;
  return nullptr;
}

void RequestTrace::set_meta(std::string key, std::string value) {
  for (auto& [k, v] : meta) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta.emplace_back(std::move(key), std::move(value));
}

const std::string* RequestTrace::find_meta(std::string_view key) const noexcept {
  for (const auto& [k, v] : meta)
    if (k == key) return &v;
  return nullptr;
}

const Span* RequestTrace::find_span(std::string_view name) const noexcept {
  for (const auto& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const Span*> RequestTrace::find_all(std::string_view name) const {
  std::vector<const Span*> out;
  for (const auto& s : spans)
    if (s.name == name) out.push_back(&s);
  return out;
}

std::vector<std::uint32_t> RequestTrace::children_of(std::uint32_t id) const {
  std::vector<std::uint32_t> out;
  for (const auto& s : spans)
    if (s.parent == static_cast<std::int32_t>(id)) out.push_back(s.id);
  return out;
}

bool RequestTrace::is_error() const noexcept {
  const Span* r = root();
  if (r == nullptr) return false;
  const std::string* code = r->find_attr("code");
  return code != nullptr && *code != "ok";
}

Json RequestTrace::to_json() const {
  Json doc = Json::object();
  doc.set("request_id", request_id);
  if (!meta.empty()) {
    Json jm = Json::object();
    for (const auto& [k, v] : meta) jm.set(k, v);
    doc.set("meta", std::move(jm));
  }
  Json jspans = Json::array();
  for (const auto& s : spans) {
    Json js = Json::object();
    js.set("id", static_cast<double>(s.id));
    js.set("parent", static_cast<double>(s.parent));
    js.set("name", s.name);
    js.set("begin_cycles", s.begin_cycles);
    js.set("end_cycles", s.end_cycles);
    if (!s.attrs.empty()) {
      Json ja = Json::object();
      for (const auto& [k, v] : s.attrs) ja.set(k, v);
      js.set("attrs", std::move(ja));
    }
    jspans.push_back(std::move(js));
  }
  doc.set("spans", std::move(jspans));
  return doc;
}

RequestTrace RequestTrace::from_json(const Json& doc) {
  if (!doc.is_object()) throw SchemaError("trace must be a JSON object");
  RequestTrace t;
  t.request_id = doc.at("request_id").as_string();
  if (t.request_id.empty()) throw SchemaError("trace has an empty request_id");
  if (const Json* jm = doc.find("meta")) {
    for (const auto& [k, v] : jm->as_object()) t.set_meta(k, v.as_string());
  }
  const Json& jspans = doc.at("spans");
  if (jspans.size() == 0)
    throw SchemaError("trace " + t.request_id + " has no spans");
  for (std::size_t i = 0; i < jspans.size(); ++i) {
    const Json& js = jspans.at(i);
    Span s;
    s.id = static_cast<std::uint32_t>(js.at("id").as_number());
    s.parent = static_cast<std::int32_t>(js.at("parent").as_number());
    s.name = js.at("name").as_string();
    s.begin_cycles = js.at("begin_cycles").as_number();
    s.end_cycles = js.at("end_cycles").as_number();
    if (const Json* ja = js.find("attrs")) {
      for (const auto& [k, v] : ja->as_object()) s.attrs.emplace_back(k, v.as_string());
    }
    if (s.id != i)
      throw SchemaError("trace " + t.request_id + ": span ids must be 0..n-1 in order");
    if (i == 0 ? s.parent != -1
               : (s.parent < 0 || s.parent >= static_cast<std::int32_t>(i)))
      throw SchemaError("trace " + t.request_id + ": span " + std::to_string(i) +
                        " has invalid parent " + std::to_string(s.parent));
    if (!(s.begin_cycles <= s.end_cycles))
      throw SchemaError("trace " + t.request_id + ": span " + std::to_string(i) +
                        " ends before it begins");
    t.spans.push_back(std::move(s));
  }
  return t;
}

std::string RequestTrace::canonical_text() const {
  std::ostringstream os;
  os << "trace " << request_id << "\n";
  for (const auto& [k, v] : meta) os << "meta " << k << "=" << v << "\n";
  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0)
      depth[i] = depth[static_cast<std::size_t>(spans[i].parent)] + 1;
    os << std::string(static_cast<std::size_t>(depth[i] + 1) * 2, ' ') << spans[i].name
       << " [" << json_number(spans[i].begin_cycles) << ", "
       << json_number(spans[i].end_cycles) << ")";
    for (const auto& [k, v] : spans[i].attrs) os << " " << k << "=" << v;
    os << "\n";
  }
  return os.str();
}

void dump_chrome_traces(std::ostream& os, const std::vector<RequestTrace>& traces) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"kami serve\"}}";
  for (std::size_t t = 0; t < traces.size(); ++t) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << t + 1
       << ",\"args\":{\"name\":\"" << json_escape(traces[t].request_id) << "\"}}";
    for (const auto& s : traces[t].spans) {
      sep();
      os << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
         << t + 1 << ",\"ts\":" << json_number(s.begin_cycles)
         << ",\"dur\":" << json_number(s.duration_cycles()) << ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : s.attrs) {
        if (!afirst) os << ",";
        afirst = false;
        os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
      }
      os << "}}";
    }
  }
  os << "]}";
}

TraceBuilder::TraceBuilder(std::string request_id, std::string root_name,
                           double start_cycles)
    : clock_(start_cycles) {
  trace_.request_id = std::move(request_id);
  Span root;
  root.id = 0;
  root.parent = -1;
  root.name = std::move(root_name);
  root.begin_cycles = clock_;
  root.end_cycles = clock_;
  trace_.spans.push_back(std::move(root));
  stack_.push_back(0);
}

std::uint32_t TraceBuilder::open(std::string_view name) {
  KAMI_REQUIRE(!finished_ && !stack_.empty(), "open() on a finished trace");
  Span s;
  s.id = static_cast<std::uint32_t>(trace_.spans.size());
  s.parent = static_cast<std::int32_t>(stack_.back());
  s.name = std::string(name);
  s.begin_cycles = clock_;
  s.end_cycles = clock_;
  trace_.spans.push_back(std::move(s));
  stack_.push_back(trace_.spans.back().id);
  return stack_.back();
}

void TraceBuilder::close() {
  KAMI_REQUIRE(stack_.size() > 1, "close() with no open child span");
  trace_.spans[stack_.back()].end_cycles = clock_;
  stack_.pop_back();
}

void TraceBuilder::close_to(int depth) {
  KAMI_REQUIRE(depth >= 1, "close_to() cannot close the root");
  while (static_cast<int>(stack_.size()) > depth) close();
}

void TraceBuilder::attr(std::string_view key, std::string_view value) {
  KAMI_REQUIRE(!stack_.empty(), "attr() with no open span");
  trace_.spans[stack_.back()].attrs.emplace_back(std::string(key), std::string(value));
}

void TraceBuilder::attr_num(std::string_view key, double v) {
  attr(key, json_number(v));
}

void TraceBuilder::root_attr(std::string_view key, std::string_view value) {
  KAMI_REQUIRE(!trace_.spans.empty(), "root_attr() on an empty trace");
  trace_.spans[0].attrs.emplace_back(std::string(key), std::string(value));
}

void TraceBuilder::root_attr_num(std::string_view key, double v) {
  root_attr(key, json_number(v));
}

void TraceBuilder::set_meta(std::string key, std::string value) {
  trace_.set_meta(std::move(key), std::move(value));
}

void TraceBuilder::advance(double cycles) {
  KAMI_REQUIRE(cycles >= 0.0, "the trace clock only moves forward");
  clock_ += cycles;
}

void TraceBuilder::advance_to(double cycles) {
  KAMI_REQUIRE(cycles >= clock_, "the trace clock only moves forward");
  clock_ = cycles;
}

void TraceBuilder::graft(RequestTrace child) {
  KAMI_REQUIRE(!finished_ && !stack_.empty(), "graft() on a finished trace");
  const std::uint32_t base = static_cast<std::uint32_t>(trace_.spans.size());
  const std::int32_t anchor = static_cast<std::int32_t>(stack_.back());
  for (Span& s : child.spans) {
    s.id += base;
    s.parent = s.parent < 0 ? anchor : s.parent + static_cast<std::int32_t>(base);
    trace_.spans.push_back(std::move(s));
  }
}

RequestTrace TraceBuilder::finish() {
  KAMI_REQUIRE(!finished_, "finish() called twice");
  while (stack_.size() > 1) close();
  trace_.spans[0].end_cycles = clock_;
  stack_.clear();
  finished_ = true;
  return std::move(trace_);
}

namespace {
TraceBuilder*& tracer_slot() {
  thread_local TraceBuilder* slot = nullptr;
  return slot;
}
}  // namespace

TraceBuilder* current_tracer() noexcept { return tracer_slot(); }

ScopedTracer::ScopedTracer(TraceBuilder* tracer) : prev_(tracer_slot()) {
  tracer_slot() = tracer;
}

ScopedTracer::~ScopedTracer() { tracer_slot() = prev_; }

}  // namespace kami::obs
