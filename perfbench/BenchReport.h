//===- perfbench/BenchReport.h - Metrics, statistics, tallies ---*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own bookkeeping: order statistics over timing samples,
/// the attempted/failed/dropped tally behind ok_frac and the result
/// line's counts, the metric tables the result line must cover, and the
/// one-line JSON result itself.
///
//===----------------------------------------------------------------------===//

#ifndef FFT3D_PERFBENCH_BENCHREPORT_H
#define FFT3D_PERFBENCH_BENCHREPORT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p Samples (mean of the two middle values for an even
/// count); 0 for an empty set.
double median(std::vector<double> Samples);

/// Nearest-rank percentile: the smallest sample S such that at least
/// \p Fraction of the samples are <= S. \p Fraction in [0, 1], where 0
/// gives the minimum; 0 for an empty set.
double percentileNearestRank(std::vector<double> Samples, double Fraction);

/// Operation accounting for one run. Failed operations errored (a
/// request completing as Failed, a transfer out of retries on a healthy
/// fabric, a failed output check); dropped ones were lost by design (a
/// serving job shed by admission control, a transfer black-holed by the
/// injected stack failure the recovery protocol exists to detect). Both
/// count against ok_frac; only failures count in the result line's
/// "failed".
class Tally {
public:
  void attempt(std::uint64_t N) { Attempted += N; }
  void fail(std::uint64_t N) { Failed += N; }
  void drop(std::uint64_t N) { Dropped += N; }

  /// Records an output check; a false \p Ok is one failed operation (and
  /// one attempted) and is kept by \p What for the report.
  void check(bool Ok, const std::string &What);

  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }
  std::uint64_t dropped() const { return Dropped; }
  const std::vector<std::string> &failedChecks() const { return Broken; }
  bool correct() const { return Broken.empty(); }

  /// (failed + dropped) / attempted; 1 when nothing was attempted.
  double failedFrac() const;

  void mergeFrom(const Tally &Other);

private:
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::uint64_t Dropped = 0;
  std::vector<std::string> Broken;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Name and unit of a metric the result line must carry.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json's
/// "end_to_end", in order).
const std::vector<MetricSpec> &endToEndSpecs();

/// The per-layer metrics every traced run reports (BENCHMARK.json's
/// "per_layer", in order).
const std::vector<MetricSpec> &perLayerSpecs();

/// True when \p Name is 1..64 characters of [A-Za-z0-9_.-] starting with
/// a letter or a digit.
bool validMetricName(const std::string &Name);

/// Returns a description of every way \p Got differs from \p Want
/// (missing, extra, wrong unit, duplicate, bad name, non-finite value);
/// empty when they match exactly.
std::vector<std::string> coverageErrors(const std::vector<Metric> &Got,
                                        const std::vector<MetricSpec> &Want);

/// Writes the result line: {"correct", "attempted", "failed", "metrics"}
/// with every value at full precision, then a newline.
void writeResultLine(std::ostream &OS, bool Correct, std::uint64_t Attempted,
                     std::uint64_t Failed, const std::vector<Metric> &Metrics);

} // namespace perfbench

#endif // FFT3D_PERFBENCH_BENCHREPORT_H
