#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int Tracer::open(std::string_view name, std::int64_t op) {
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

double Tracer::close(int index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("perfbench: spans must close innermost first");
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

namespace {

kami::obs::Json object_of(const auto& map) {
  kami::obs::Json o = kami::obs::Json::object();
  for (const auto& [k, v] : map) o.set(k, kami::obs::Json(v));
  return o;
}

}  // namespace

void Tracer::write_json(const std::string& path,
                        const std::map<std::string, std::string>& meta,
                        const std::map<std::string, double>& metrics) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write trace to " + path);
  kami::obs::Json names = kami::obs::Json::array();
  for (const std::string& n : names_) names.push_back(n);
  os << "{\"format\":\"perfbench.trace/1\",\"meta\":" << object_of(meta).dump()
     << ",\"names\":" << names.dump() << ",\"spans\":[";
  // Spans are written directly: a traced serving run holds ~10^5-10^6.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
       << s.parent << ',' << s.op << ']';
  }
  os << "],\"metrics\":" << object_of(metrics).dump() << "}\n";
  if (!os) throw std::runtime_error("perfbench: failed writing trace to " + path);
}

}  // namespace perfbench
