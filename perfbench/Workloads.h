//===- perfbench/Workloads.h - The benchmark's five workloads ---*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload times the program's own set-up calls (repeated, median
/// reported), then repeats its timed calls until the run's time budget is
/// spent, checking every iteration's outputs against oracles that hold
/// for any correct program. Everything runs on the calling thread:
/// SimThreads = 1 and one sweep thread.
///
//===----------------------------------------------------------------------===//

#ifndef FFT3D_PERFBENCH_WORKLOADS_H
#define FFT3D_PERFBENCH_WORKLOADS_H

#include "BenchReport.h"
#include "Spans.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t Seed = 1;
  /// Timed-region budget in seconds: iterations repeat until it is spent
  /// (always at least one). 0 runs exactly one iteration and one set-up.
  double Seconds = 10.0;
  /// Non-null in the traced run: spans go around every timed call.
  SpanRecorder *Spans = nullptr;
};

struct WorkloadResult {
  /// Host seconds of each set-up repetition.
  std::vector<double> SetupS;
  /// Host seconds of each timed iteration (set-up and checks excluded),
  /// and of each timed call in it: CallS[c][i] is call c of iteration i.
  std::vector<double> WallS;
  std::vector<std::vector<double>> CallS;
  Tally Ops;
  /// The workload's simulated result time in microseconds (identical on
  /// every iteration; the checks enforce that).
  double SimTimeUs = 0.0;
  /// Figures the workload alone has (paper_err_pct, slo_attain), printed
  /// by name; "n/a" entries are listed in NotApplicable.
  std::vector<Metric> Notes;
  std::vector<std::string> NotApplicable;
  /// Per-layer figures read from the program's own reports and call
  /// timings, reported by the traced run.
  std::vector<Metric> Layer;
};

using WorkloadFn = WorkloadResult (*)(const RunOptions &);

struct WorkloadInfo {
  const char *Name;
  WorkloadFn Run;
};

/// The five workloads. BENCHMARK.json lists sim_opt_4096 and serve_mix;
/// run.py names the other three and why they are left out.
const std::vector<WorkloadInfo> &workloads();

/// Null when \p Name is not a workload.
const WorkloadInfo *findWorkload(const std::string &Name);

/// The end-to-end metrics of one untraced run, in endToEndSpecs() order.
/// wall_s sums each timed call's fastest sample; setup_s is the fastest
/// set-up sample.
std::vector<Metric> endToEndMetrics(const WorkloadResult &R,
                                    double PeakRssMiB);

/// Peak resident set of this process so far, MiB.
double peakRssMiB();

} // namespace perfbench

#endif // FFT3D_PERFBENCH_WORKLOADS_H
