//===- perfbench/main.cpp - The fft3d benchmark driver --------------------===//
//
// Part of the fft3d project.
//
// Usage:
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--out-dir DIR]
//
// Untraced (--trace 0): runs one workload for S seconds and prints its
// end-to-end metrics. Traced (--trace 1): runs every workload once
// untraced and once inside spans, plus the per-layer probes, and prints
// the per-layer metrics; the spans go to DIR/perfbench_spans.json.
// Either way the last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}. Exit 1 when an output check fails,
// 2 on bad usage, 3 when the metrics do not cover their table.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "Spans.h"
#include "Workloads.h"

#include "fft/SimdKernels.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 0;
  bool HaveSeed = false;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir = ".";
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\nworkloads:",
               Why);
  for (const WorkloadInfo &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
      A.HaveSeed = true;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
      if (!(A.Seconds >= 0.0 && A.Seconds <= 600.0))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return false;
      A.Trace = Value[0] == '1';
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return A.HaveSeed && findWorkload(A.Workload);
}

void printEnvironment(const Args &A) {
  const char *SimdEnv = std::getenv("FFT3D_SIMD");
  std::printf("# perfbench: workload %s, seed %llu, %s run, %.3g s budget\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? "traced" : "untraced", A.Seconds);
  std::printf("# host: nproc %ld, hardware concurrency %u\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency());
  std::printf("# simd: %s (FFT3D_SIMD=%s)\n",
              fft3d::simdLevelName(fft3d::activeSimdLevel()),
              SimdEnv ? SimdEnv : "unset");
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("# build: %s, assertions %s, compiler %s\n",
              PERFBENCH_BUILD_TYPE, Asserts, __VERSION__);
#ifndef __OPTIMIZE__
  std::printf("# WARNING: unoptimized build; timings are not comparable\n");
#endif
}

void printTimings(const char *What, const std::vector<double> &S) {
  std::printf("  %-8s median %.6g s over %zu samples (min %.6g, max %.6g)\n",
              What, median(S), S.size(),
              percentileNearestRank(S, 0.0), percentileNearestRank(S, 1.0));
  if (S.size() > 50)
    return;
  std::printf("  %-8s samples:", What);
  for (double X : S)
    std::printf(" %.4g", X);
  std::printf("\n");
}

void printChecks(const Tally &Ops) {
  std::printf("  ops: attempted %llu, failed %llu, dropped %llu, "
              "failed_frac %.6g\n",
              static_cast<unsigned long long>(Ops.attempted()),
              static_cast<unsigned long long>(Ops.failed()),
              static_cast<unsigned long long>(Ops.dropped()),
              Ops.failedFrac());
  for (const std::string &What : Ops.failedChecks())
    std::printf("  CHECK FAILED: %s\n", What.c_str());
}

int finish(bool Correct, const Tally &Ops, const std::vector<Metric> &Metrics,
           const std::vector<MetricSpec> &Specs) {
  const std::vector<std::string> Errors = coverageErrors(Metrics, Specs);
  for (const std::string &E : Errors)
    std::fprintf(stderr, "error: %s\n", E.c_str());
  if (!Errors.empty())
    return 3;
  std::fflush(stdout);
  writeResultLine(std::cout, Correct, Ops.attempted(), Ops.failed(), Metrics);
  std::cout.flush();
  return Correct ? 0 : 1;
}

int runUntraced(const Args &A) {
  const WorkloadInfo &W = *findWorkload(A.Workload);
  const WorkloadResult R = W.Run({A.Seed, A.Seconds, nullptr});
  const std::vector<Metric> Metrics = endToEndMetrics(R, peakRssMiB());
  std::printf("%s:\n", W.Name);
  printTimings("wall", R.WallS);
  printTimings("setup", R.SetupS);
  for (const Metric &M : Metrics)
    std::printf("  %-16s %.10g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("  %-16s %.10g %s\n", "failed_frac", R.Ops.failedFrac(), "ratio");
  for (const Metric &M : R.Notes)
    std::printf("  %-16s %.10g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const std::string &N : R.NotApplicable)
    std::printf("  n/a: %s\n", N.c_str());
  printChecks(R.Ops);
  return finish(R.Ops.correct(), R.Ops, Metrics, endToEndSpecs());
}

int runTraced(const Args &A) {
  SpanRecorder Spans;
  Tally All;
  std::vector<Metric> Layer;
  for (const WorkloadInfo &W : workloads()) {
    // The same calls untraced, then traced: the difference is the
    // tracing overhead, and the simulated counts must not move.
    const WorkloadResult U = W.Run({A.Seed, 0.0, nullptr});
    WorkloadResult T;
    {
      const Span S(&Spans, W.Name);
      T = W.Run({A.Seed, 0.0, &Spans});
    }
    T.Ops.check(T.SimTimeUs == U.SimTimeUs &&
                    T.Ops.dropped() == U.Ops.dropped(),
                std::string(W.Name) +
                    ": traced simulated counts equal the untraced run's");
    const double UWall = median(U.WallS), TWall = median(T.WallS);
    std::printf("%s: untraced %.6g s, traced %.6g s\n", W.Name, UWall, TWall);
    printChecks(T.Ops);
    All.mergeFrom(U.Ops);
    All.mergeFrom(T.Ops);
    Layer.insert(Layer.end(), T.Layer.begin(), T.Layer.end());
    Layer.push_back({std::string("obs.trace_overhead_pct.") + W.Name,
                     (TWall - UWall) / UWall * 100.0, "%"});
  }

  std::printf("spans (self time = span minus its child spans):\n");
  for (const SpanSummary &S : Spans.summarize())
    std::printf("  %-56s n=%-5llu total %.6f s  self %.6f s\n", S.Name.c_str(),
                static_cast<unsigned long long>(S.Count), S.TotalS, S.SelfS);
  const std::string Path = A.OutDir + "/perfbench_spans.json";
  std::ofstream Out(Path);
  Spans.writeChromeTrace(Out);
  if (Out.good())
    std::printf("spans written to %s (%zu spans)\n", Path.c_str(),
                Spans.spans().size());
  else
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
  for (const Metric &M : Layer)
    std::printf("  %-40s %.10g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  return finish(All.correct(), All, Layer, perLayerSpecs());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage("bad or missing arguments");
  printEnvironment(A);
  return A.Trace ? runTraced(A) : runUntraced(A);
}
