#include "model/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/require.hpp"

namespace kami::model {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

}  // namespace

double Predictor::analytic_cycles(const sim::DeviceSpec& dev, Algo algo,
                                  Precision prec, std::size_t m, std::size_t n,
                                  std::size_t k, int p, const PredictOptions& opt) {
  Params q = Params::from_device(dev, prec, m, n, k, p);
  q.theta_r = opt.theta_r;
  q.theta_w = opt.theta_w;
  Cost c;
  switch (algo) {
    case Algo::OneD: c = cost_1d(q); break;
    case Algo::TwoD: c = cost_2d(q); break;
    case Algo::ThreeD: c = cost_3d(q); break;
  }
  // The closed forms have no global-memory term; an IO-charged run's extra
  // cycles land entirely in the bucket's fitted residual.
  return c.T_all;
}

void Predictor::observe(const Observation& obs) {
  KAMI_REQUIRE(obs.simulated_cycles > 0.0,
               "observation carries no timing signal (simulated_cycles <= 0)");
  const sim::DeviceSpec& dev = sim::device_by_name(obs.device);
  const double analytic = analytic_cycles(dev, obs.algo, obs.precision, obs.m, obs.n,
                                          obs.k, obs.p, obs.options);
  KAMI_REQUIRE(analytic > 0.0, "analytic cost must be positive");
  const double log_ratio = std::log(obs.simulated_cycles / analytic);

  const BucketKey key{obs.device, obs.algo, obs.precision, obs.p,
                      obs.options.charge_global_io};
  const std::scoped_lock lock(mu_);
  Bucket& b = buckets_[key];
  if (b.count == 0) {
    b.log_min = log_ratio;
    b.log_max = log_ratio;
  } else {
    b.log_min = std::min(b.log_min, log_ratio);
    b.log_max = std::max(b.log_max, log_ratio);
  }
  b.log_sum += log_ratio;
  ++b.count;
}

void Predictor::bucket_fit_locked(const Bucket& b, double* scale, double* band,
                                  bool* calibrated, bool* confident) const {
  if (b.count == 0) {
    *scale = 1.0;
    *band = 0.0;
    *calibrated = false;
    *confident = false;
    return;
  }
  const double mean_log = b.log_sum / static_cast<double>(b.count);
  *scale = std::exp(mean_log);
  // Worst observed multiplicative deviation from the fitted scale, padded so
  // the band also covers shapes between the calibration points.
  const double up = std::exp(b.log_max - mean_log) - 1.0;
  const double down = 1.0 - std::exp(b.log_min - mean_log);
  *band = std::max(kBandFloor, kBandPad * std::max(up, down));
  *calibrated = b.count >= kMinSamples;
  *confident = *calibrated && *band <= kTrustRelError;
}

Prediction Predictor::predict(const sim::DeviceSpec& dev, Algo algo, Precision prec,
                              std::size_t m, std::size_t n, std::size_t k, int p,
                              const PredictOptions& opt) const {
  Prediction out;
  out.analytic_cycles = analytic_cycles(dev, algo, prec, m, n, k, p, opt);

  const BucketKey key{dev.name, algo, prec, p, opt.charge_global_io};
  {
    const std::scoped_lock lock(mu_);
    const auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      bucket_fit_locked(it->second, &out.scale, &out.rel_band, &out.calibrated,
                        &out.confident);
      out.samples = it->second.count;
    }
  }
  // Domain gate: the closed forms assume perfect MMA tiling, and the
  // simulator charges ragged shapes for remainder slices the formulas never
  // see (observed up to ~20x beyond the fitted residual). A shape that does
  // not divide the precision's MMA tile is outside the calibrated envelope,
  // so the fit must not claim it.
  const sim::MmaShape tile = dev.mma_shape(prec);
  if (m % static_cast<std::size_t>(tile.m) != 0 ||
      n % static_cast<std::size_t>(tile.n) != 0 ||
      k % static_cast<std::size_t>(tile.k) != 0) {
    out.calibrated = false;
    out.confident = false;
  }
  // An uncalibrated bucket predicts the raw formula (scale 1): still the
  // right relative ranking within an algorithm, just not trustworthy in
  // absolute terms — which is exactly what `confident == false` says.
  // `scale` reports the correction actually applied, so it stays 1 too.
  if (!out.calibrated) out.scale = 1.0;
  out.cycles = out.analytic_cycles * out.scale;
  return out;
}

void Predictor::require_within_band(const Prediction& pred, double actual_cycles,
                                    const std::string& context) {
  KAMI_REQUIRE(actual_cycles > 0.0, "actual latency must be positive");
  const double tolerance = pred.calibrated ? pred.rel_band : kTrustRelError;
  const double rel_error = std::abs(actual_cycles - pred.cycles) / actual_cycles;
  if (rel_error > tolerance)
    throw ModelDivergence(context + ": formula-vs-simulator divergence " +
                          fmt(rel_error * 100.0) + "% exceeds the calibrated " +
                          fmt(tolerance * 100.0) + "% tolerance (predicted " +
                          fmt(pred.cycles) + " cycles, simulated " +
                          fmt(actual_cycles) + ", scale " + fmt(pred.scale) + " over " +
                          std::to_string(pred.samples) + " samples)");
}

std::vector<Predictor::BucketStats> Predictor::bucket_stats() const {
  const std::scoped_lock lock(mu_);
  std::vector<BucketStats> out;
  out.reserve(buckets_.size());
  for (const auto& [key, b] : buckets_) {
    BucketStats s;
    s.device = key.device;
    s.algo = key.algo;
    s.precision = key.precision;
    s.p = key.p;
    s.charge_global_io = key.charge_global_io;
    s.samples = b.count;
    bool calibrated = false;
    bucket_fit_locked(b, &s.scale, &s.rel_band, &calibrated, &s.confident);
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t Predictor::bucket_count() const {
  const std::scoped_lock lock(mu_);
  return buckets_.size();
}

std::size_t Predictor::observation_count() const {
  const std::scoped_lock lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, b] : buckets_) total += b.count;
  return total;
}

void Predictor::reset() {
  const std::scoped_lock lock(mu_);
  buckets_.clear();
}

Predictor& Predictor::global() {
  static Predictor predictor;
  return predictor;
}

}  // namespace kami::model
