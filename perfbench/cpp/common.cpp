#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double geomean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());  // the same sum whatever order v arrived in
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void Digest::profile(const kami::sim::KernelProfile& p) {
  num(p.latency);
  num(p.tc_busy);
  num(p.smem_busy);
  num(p.gmem_busy);
  num(p.vector_busy);
  num(p.useful_flops);
  u64(p.reg_bytes_per_warp);
  u64(p.smem_bytes);
  u64(static_cast<std::uint64_t>(p.num_warps));
  num(p.mean_breakdown.smem_comm);
  num(p.mean_breakdown.gmem);
  num(p.mean_breakdown.reg_copy);
  num(p.mean_breakdown.compute);
  num(p.mean_breakdown.sync_wait);
}

std::string profile_diff(const kami::sim::KernelProfile& a,
                         const kami::sim::KernelProfile& b) {
  const auto& x = a.mean_breakdown;
  const auto& y = b.mean_breakdown;
  const std::pair<const char*, bool> fields[] = {
      {"latency", a.latency == b.latency},
      {"tc_busy", a.tc_busy == b.tc_busy},
      {"smem_busy", a.smem_busy == b.smem_busy},
      {"gmem_busy", a.gmem_busy == b.gmem_busy},
      {"vector_busy", a.vector_busy == b.vector_busy},
      {"useful_flops", a.useful_flops == b.useful_flops},
      {"reg_bytes_per_warp", a.reg_bytes_per_warp == b.reg_bytes_per_warp},
      {"smem_bytes", a.smem_bytes == b.smem_bytes},
      {"num_warps", a.num_warps == b.num_warps},
      {"breakdown.smem_comm", x.smem_comm == y.smem_comm},
      {"breakdown.gmem", x.gmem == y.gmem},
      {"breakdown.reg_copy", x.reg_copy == y.reg_copy},
      {"breakdown.compute", x.compute == y.compute},
      {"breakdown.sync_wait", x.sync_wait == y.sync_wait},
  };
  for (const auto& [name, same] : fields)
    if (!same) return name;
  return "";
}

double reassociation_tolerance(kami::Precision p) {
  // Same table as the differential harness (src/verify/differential.cpp).
  switch (p) {
    case kami::Precision::FP64: return 1e-12;
    case kami::Precision::FP32: return 1e-5;
    case kami::Precision::TF32: return 1e-2;
    case kami::Precision::FP16: return 1e-2;
    case kami::Precision::BF16: return 1e-1;
    case kami::Precision::FP8E4M3: return 8e-2;
  }
  return 1e-2;
}

double counter(const kami::obs::MetricRegistry& reg, const std::string& name) {
  const kami::obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0.0;
}

kami::obs::MetricRegistry& replay_registry() {
  static kami::obs::MetricRegistry reg;
  return reg;
}

double histogram_samples(const kami::obs::MetricRegistry& reg) {
  double n = 0.0;
  const kami::obs::Json snapshot = reg.to_json();
  if (const kami::obs::Json* hists = snapshot.find("histograms"))
    for (const auto& [name, h] : hists->as_object()) n += h.at("count").as_number();
  return n;
}

namespace {

/// The `keep` fastest repeats of each column across rows (one row per pass).
std::vector<std::vector<double>> fastest_repeats(const std::vector<std::vector<double>>& rows,
                                                 std::size_t keep) {
  if (rows.empty()) return {};
  std::vector<std::vector<double>> out(rows.front().size());
  std::vector<double> repeats(rows.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (rows[p].size() != out.size())
        throw std::logic_error("perfbench: passes differ in their number of ops");
      repeats[p] = rows[p][i];
    }
    std::partial_sort(repeats.begin(), repeats.begin() + static_cast<std::ptrdiff_t>(keep),
                      repeats.end());
    out[i].assign(repeats.begin(), repeats.begin() + static_cast<std::ptrdiff_t>(keep));
  }
  return out;
}

}  // namespace

std::size_t HostSamples::kept() const {
  if (op_ms.empty() || op_ms.front().empty()) return 0;
  const std::size_t ops = op_ms.front().size();
  return std::min(passes(), std::max<std::size_t>(1, (1000 + ops - 1) / ops));
}

std::vector<double> HostSamples::fast_op_ms() const {
  std::vector<double> pooled;
  for (const auto& k : fastest_repeats(op_ms, kept())) pooled.insert(pooled.end(), k.begin(), k.end());
  return pooled;
}

double HostSamples::throughput() const {
  double total = 0.0;
  for (const auto& k : fastest_repeats(seg_s, kept()))
    total += std::accumulate(k.begin(), k.end(), 0.0) / static_cast<double>(k.size());
  return total > 0.0 ? static_cast<double>(op_ms.front().size()) / total : 0.0;
}

namespace {

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Move the (single) thread onto one CPU; a refusal leaves it where it is.
void run_on(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

HostSamples run_passes(const Options& opt, const PassHooks& hooks, Report& report,
                       Tracer* tracer, HostSamples* traced) {
  constexpr int kMinPasses = 3;  // set-up repeats behind the setup_s median
  // On a shared host a CPU's speed depends on what runs beside it, and a
  // slow CPU can stay slow for longer than a run. Passes therefore rotate
  // the thread over every CPU it may use, so each op's fastest repeats come
  // from the least-disturbed CPU of the run.
  const std::vector<int> cpus = allowed_cpus();
  HostSamples untraced;
  std::uint64_t checked_digest = 0;
  for (int pass = 0;; ++pass) {
    const double measured = untraced.timed_s + (traced ? traced->timed_s : 0.0);
    const bool enough = pass > kMinPasses && measured >= opt.seconds &&
                        (!tracer || (traced && traced->passes() > 0));
    if (enough) break;
    const bool use_trace = tracer && pass > 0 && pass % 2 == 1;

    if (!cpus.empty()) run_on(cpus[static_cast<std::size_t>(pass) % cpus.size()]);
    const Clock::time_point t0 = Clock::now();
    hooks.set_up();
    const double setup_s = seconds_between(t0, Clock::now());

    std::vector<double> op_ms;
    PassResult r = hooks.run(op_ms, use_trace ? tracer : nullptr);
    if (pass == 0) {
      checked_digest = r.digest;
      hooks.check(report);
      continue;
    }
    if (r.digest != checked_digest)
      report.fail("pass " + std::to_string(pass) +
                  " did not reproduce the checked pass's outputs");
    if (r.segment_s.empty())
      for (const double ms : op_ms) r.segment_s.push_back(ms * 1e-3);
    untraced.setup_s.push_back(setup_s);
    HostSamples& dst = use_trace ? *traced : untraced;
    for (const double x : r.segment_s) dst.timed_s += x;
    dst.op_ms.push_back(std::move(op_ms));
    dst.seg_s.push_back(std::move(r.segment_s));
  }
  report.context["passes_measured"] = static_cast<double>(untraced.passes());
  return untraced;
}

void host_metrics(const HostSamples& s, Report& report, const HostSamples* traced) {
  const std::vector<double> fast = s.fast_op_ms();
  report.metrics["setup_s"] = median(s.setup_s);
  report.metrics["throughput_ops_s"] = s.throughput();
  report.metrics["latency_p50_ms"] = percentile(fast, 50.0);
  report.metrics["latency_p99_ms"] = percentile(fast, 99.0);
  report.context["latency_samples"] = static_cast<double>(fast.size());
  if (traced && traced->passes() > 0)
    report.metrics["trace.overhead_pct"] = 100.0 * (s.throughput() / traced->throughput() - 1.0);
}

}  // namespace perfbench
