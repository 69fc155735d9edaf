// Streaming summary statistics and quantile estimation for experiment
// metrics (waiting times, convergence times, message counts).
//
// `Summary` keeps O(1) moments; `Histogram` additionally keeps every
// sample so exact quantiles can be reported in the benchmark tables.
// That is 8 bytes per sample, so a Histogram belongs to a measurement
// (the experiment runner's per-run and per-class latency bins, the
// waiting-time tracker), not to a library hot path: WorkloadDriver
// keeps no per-grant samples and reports latencies to an optional
// recorder instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace klex::support {

/// O(1) running summary: count / min / max / mean / variance (Welford).
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact-quantile histogram: stores all samples.
class Histogram {
 public:
  void add(double x);
  void merge(const Histogram& other);

  std::uint64_t count() const { return summary_.count(); }
  double min() const { return summary_.min(); }
  double max() const { return summary_.max(); }
  double mean() const { return summary_.mean(); }
  double stddev() const { return summary_.stddev(); }

  /// Exact q-quantile (0 <= q <= 1) by nearest-rank; requires samples.
  double quantile(double q) const;

  double median() const { return quantile(0.5); }
  double p99() const { return quantile(0.99); }

  const std::vector<double>& samples() const { return samples_; }

  /// One-line human-readable digest, e.g. "n=100 mean=4.2 p50=4 p99=9 max=12".
  std::string digest() const;

 private:
  void sort_if_needed() const;

  Summary summary_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace klex::support
