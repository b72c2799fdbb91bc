//===- perfbench/Probes.h - Per-layer probes of the traced run --*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer measurements the traced run takes after a workload's timed
/// iteration: each drives one layer's public calls on the workload's own
/// configuration (its address stream, its phases, its tuner candidates)
/// and appends the figures to the workload's per-layer list.
///
//===----------------------------------------------------------------------===//

#ifndef FFT3D_PERFBENCH_PROBES_H
#define FFT3D_PERFBENCH_PROBES_H

#include "Workloads.h"

#include "core/AutoTuner.h"
#include "core/Fft2dProcessor.h"

namespace perfbench {

/// Field-by-field equality of two reports (every count, time and rate).
bool sameAppReport(const fft3d::AppReport &A, const fft3d::AppReport &B);

/// Trace generation, address decode, the stream driver (PhaseEngine on a
/// StackBackend, checked against the processor's phases), the simulated
/// memory counts and the PDES window accounting of a sim workload. The
/// baseline cell also drives its phases in plain-EventQueue mode (the
/// K=1 protocol cost); the optimized cell also measures the K=2 engine,
/// capped-vs-uncapped extrapolation, the planner, evaluator-vs-processor
/// agreement and the program's own observability cost. \p Rep and
/// \p WallS are the workload's report and median timed seconds.
void probeSimLayers(const fft3d::SystemConfig &Config, bool Optimized,
                    const fft3d::AppReport &Rep, double WallS,
                    SpanRecorder *Spans, WorkloadResult &R);

/// Re-evaluates every tuner candidate through LayoutEvaluator::evaluate
/// (timed one by one, and checked equal to the tuner's own metrics), and
/// reads the Eq. 1 gap and the pool accounting off \p Result.
void probeTuneLayers(const fft3d::SystemConfig &Config,
                     const fft3d::TuneResult &Result, double WallS,
                     SpanRecorder *Spans, WorkloadResult &R);

} // namespace perfbench

#endif // FFT3D_PERFBENCH_PROBES_H
