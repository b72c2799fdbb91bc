//===- perfbench/Probes.cpp - Per-layer probes of the traced run ----------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "core/AccessTrace.h"
#include "core/LayoutEvaluator.h"
#include "core/PhaseEngine.h"
#include "fft/Complex.h"
#include "fft/StreamingKernel.h"
#include "layout/BlockDynamicLayout.h"
#include "layout/LayoutPlanner.h"
#include "layout/LinearLayouts.h"
#include "layout/TiledLayout.h"
#include "mem3d/Address.h"
#include "mem3d/Backend.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "support/MathUtils.h"

#include <cmath>
#include <memory>

using namespace fft3d;

namespace perfbench {

namespace {

bool samePhase(const PhaseResult &A, const PhaseResult &B) {
  return A.Elapsed == B.Elapsed && A.BytesRead == B.BytesRead &&
         A.BytesWritten == B.BytesWritten && A.Ops == B.Ops &&
         A.ReadGBps == B.ReadGBps && A.WriteGBps == B.WriteGBps &&
         A.ThroughputGBps == B.ThroughputGBps &&
         A.PeakUtilization == B.PeakUtilization &&
         A.RowActivations == B.RowActivations &&
         A.RowHitRate == B.RowHitRate &&
         A.FirstReadComplete == B.FirstReadComplete &&
         A.TotalPhaseBytes == B.TotalPhaseBytes &&
         A.EstimatedPhaseTime == B.EstimatedPhaseTime &&
         A.MeanReqLatencyNanos == B.MeanReqLatencyNanos &&
         A.MaxReqLatencyNanos == B.MaxReqLatencyNanos &&
         A.Truncated == B.Truncated && A.RefreshStalls == B.RefreshStalls &&
         A.EccRetries == B.EccRetries &&
         A.ThrottleStalls == B.ThrottleStalls &&
         A.OfflineRedirects == B.OfflineRedirects &&
         A.OfflineFailed == B.OfflineFailed && A.SimEvents == B.SimEvents;
}

/// The regions and burst streams Fft2dProcessor builds for one
/// architecture (fault-free, complex input): input, intermediate and
/// output matrices one row-buffer-aligned region apart.
struct AddressStreams {
  std::unique_ptr<DataLayout> Input, Mid, Out;
  std::unique_ptr<TraceSource> RowRead, RowWrite, ColRead, ColWrite;

  AddressStreams(const SystemConfig &C, bool Optimized,
                 const BlockPlan &Plan) {
    const std::uint64_t N = C.N;
    const auto RowBuf = static_cast<std::uint32_t>(C.Mem.Geo.RowBufferBytes);
    const std::uint64_t Stride = roundUp(N * N * ElementBytes, RowBuf);
    Input = std::make_unique<RowMajorLayout>(N, N, ElementBytes, 0);
    RowRead = std::make_unique<RowScanTrace>(*Input, RowBuf);
    if (!Optimized) {
      Mid = std::make_unique<RowMajorLayout>(N, N, ElementBytes, Stride);
      Out = std::make_unique<RowMajorLayout>(N, N, ElementBytes, 2 * Stride);
      RowWrite = std::make_unique<RowScanTrace>(*Mid, RowBuf);
      ColRead = std::make_unique<ColScanTrace>(*Mid, RowBuf);
      ColWrite = std::make_unique<ColScanTrace>(*Out, RowBuf);
      return;
    }
    auto BlockMid = std::make_unique<BlockDynamicLayout>(
        N, N, ElementBytes, Stride, Plan.W, Plan.H);
    auto BlockOut = std::make_unique<BlockDynamicLayout>(
        N, N, ElementBytes, 2 * Stride, Plan.W, Plan.H);
    RowWrite = std::make_unique<ChunkedBlockWriteTrace>(*BlockMid);
    ColRead =
        std::make_unique<BlockTrace>(*BlockMid, BlockOrder::ColMajorBlocks);
    ColWrite =
        std::make_unique<BlockTrace>(*BlockOut, BlockOrder::ColMajorBlocks);
    Mid = std::move(BlockMid);
    Out = std::move(BlockOut);
  }

  std::vector<TraceSource *> all() const {
    return {RowRead.get(), RowWrite.get(), ColRead.get(), ColWrite.get()};
  }
};

/// Drives both phases of one architecture through PhaseEngine the way
/// Fft2dProcessor does, on a StackBackend (sharded engine, K = 1) or on a
/// plain EventQueue; returns the two phases' host seconds.
std::pair<double, double> drivePhases(const SystemConfig &C, bool Optimized,
                                      const BlockPlan &Plan, bool Sharded,
                                      SpanRecorder *Spans, PhaseResult &Row,
                                      PhaseResult &Col) {
  AddressStreams S(C, Optimized, Plan);
  const ArchParams &A = Optimized ? C.Optimized : C.Baseline;
  const StreamingKernel Kernel(C.N, A.Lanes, A.ClockMHz);
  const double Pace = Kernel.streamGBps();
  std::unique_ptr<StackBackend> Stack;
  std::unique_ptr<EventQueue> PlainEvents;
  std::unique_ptr<Memory3D> PlainMem;
  std::unique_ptr<PhaseEngine> Engine;
  if (Sharded) {
    Stack = std::make_unique<StackBackend>(C.Mem, 1);
    Engine = std::make_unique<PhaseEngine>(
        Stack->memory(), Stack->events(), C.MaxSimBytesPerDirection,
        C.MaxSimOpsPerDirection);
    Engine->setShardedEngine(&Stack->engine());
  } else {
    PlainEvents = std::make_unique<EventQueue>();
    PlainMem = std::make_unique<Memory3D>(*PlainEvents, C.Mem);
    Engine = std::make_unique<PhaseEngine>(*PlainMem, *PlainEvents,
                                           C.MaxSimBytesPerDirection,
                                           C.MaxSimOpsPerDirection);
  }
  const double RowS = timeCall(
      Spans,
      Sharded ? "core.PhaseEngine::run(row)"
              : "core.PhaseEngine::run(row, plain)",
      [&] {
        Row = Engine->run({S.RowRead.get(), false, A.ReadWindow, Pace, 0},
                          {S.RowWrite.get(), true, A.WriteWindow, Pace,
                           Kernel.pipelineFillTime()});
      });
  const double ColS = timeCall(
      Spans,
      Sharded ? "core.PhaseEngine::run(col)"
              : "core.PhaseEngine::run(col, plain)",
      [&] {
        Col = Engine->run({S.ColRead.get(), false, A.ReadWindow, Pace, 0},
                          {S.ColWrite.get(), true, A.WriteWindow, Pace,
                           Kernel.pipelineFillTime()});
      });
  return {RowS, ColS};
}

void probeStreams(const SystemConfig &C, bool Optimized, const BlockPlan &Plan,
                  const char *Suffix, SpanRecorder *Spans, WorkloadResult &R) {
  AddressStreams S(C, Optimized, Plan);
  std::uint64_t Ops = 0, Sink = 0;
  const double TraceS = timeCall(Spans, "core.TraceSource::next(drain)", [&] {
    for (TraceSource *T : S.all())
      while (const std::optional<TraceOp> Op = T->next()) {
        ++Ops;
        Sink += Op->Addr;
      }
  });
  std::vector<PhysAddr> Addrs;
  Addrs.reserve(Ops);
  for (TraceSource *T : S.all()) {
    T->reset();
    while (const std::optional<TraceOp> Op = T->next())
      Addrs.push_back(Op->Addr);
  }
  const AddressMapper Mapper(C.Mem.Geo, C.Mem.MapKind, C.Mem.XorHash);
  const double DecodeS =
      timeCall(Spans, "mem3d.AddressMapper::decode(stream)", [&] {
        for (PhysAddr A : Addrs)
          Sink += Mapper.decode(A).Vault;
      });
  R.Ops.check(Sink != 0 && Addrs.size() == Ops,
              "address stream drains identically twice");
  const std::string Sfx = Suffix;
  R.Layer.push_back({"core.trace.ns_per_req" + Sfx,
                     TraceS * 1e9 / double(Ops), "ns"});
  R.Layer.push_back({"mem3d.decode.ns_per_req" + Sfx,
                     DecodeS * 1e9 / double(Ops), "ns"});
}

} // namespace

bool sameAppReport(const AppReport &A, const AppReport &B) {
  return A.N == B.N && A.Optimized == B.Optimized &&
         samePhase(A.RowPhase, B.RowPhase) &&
         samePhase(A.ColPhase, B.ColPhase) &&
         A.AppThroughputGBps == B.AppThroughputGBps &&
         A.PeakUtilization == B.PeakUtilization &&
         A.AppLatency == B.AppLatency &&
         A.DataParallelism == B.DataParallelism &&
         A.EstimatedTotalTime == B.EstimatedTotalTime &&
         A.SimWindows == B.SimWindows &&
         A.SimStreamWindows == B.SimStreamWindows &&
         A.SimBarriers == B.SimBarriers &&
         A.PermuteBufferBytes == B.PermuteBufferBytes &&
         A.Reconfigurations == B.Reconfigurations && A.Plan.W == B.Plan.W &&
         A.Plan.H == B.Plan.H &&
         A.HealthyVaultsStart == B.HealthyVaultsStart &&
         A.HealthyVaultsEnd == B.HealthyVaultsEnd &&
         A.Replanned == B.Replanned && A.MigrationTime == B.MigrationTime;
}

void probeSimLayers(const SystemConfig &C, bool Optimized,
                    const AppReport &Rep, double WallS, SpanRecorder *Spans,
                    WorkloadResult &R) {
  const char *Suffix = Optimized ? ".opt" : ".base";
  const std::string Sfx = Suffix;
  const PhaseResult &Col = Rep.ColPhase;
  const double Events = double(Rep.RowPhase.SimEvents + Col.SimEvents);
  const double Reqs = double(Rep.RowPhase.Ops + Col.Ops);
  R.Layer.push_back({"sim.events" + Sfx, Events, "count"});
  R.Layer.push_back({"sim.events_per_s" + Sfx, Events / WallS, "1/s"});
  const double Windows = double(Rep.SimWindows);
  R.Layer.push_back({"sim.pdes.windows" + Sfx, Windows, "count"});
  R.Layer.push_back(
      {"sim.pdes.windows_per_req" + Sfx, Windows / Reqs, "window/req"});
  R.Layer.push_back({"sim.pdes.stream_windows" + Sfx,
                     double(Rep.SimStreamWindows), "count"});
  R.Layer.push_back(
      {"sim.pdes.barriers" + Sfx, double(Rep.SimBarriers), "count"});
  R.Layer.push_back(
      {"core.phase.events_per_req" + Sfx, Events / Reqs, "event/req"});
  R.Layer.push_back(
      {"core.phase.ns_per_event" + Sfx, WallS * 1e9 / Events, "ns"});
  // The paper's figure of merit is the column phase's: bytes moved per
  // row activation, which is what Eq. 1 optimizes.
  const double Activations = double(Col.RowActivations);
  R.Layer.push_back({"mem3d.row_activations" + Sfx, Activations, "count"});
  R.Layer.push_back({"mem3d.bytes_per_activation" + Sfx,
                     double(Col.BytesRead + Col.BytesWritten) /
                         std::max(Activations, 1.0),
                     "B"});
  R.Layer.push_back({"mem3d.row_hit_rate" + Sfx, Col.RowHitRate, "ratio"});
  R.Layer.push_back(
      {"mem3d.mean_req_lat_ns" + Sfx, Col.MeanReqLatencyNanos, "sim_ns"});
  R.Layer.push_back({"mem3d.peak_util" + Sfx, Rep.PeakUtilization, "ratio"});
  probeStreams(C, Optimized, Rep.Plan, Suffix, Spans, R);

  // Stream driver, the way Fft2dProcessor drives it; it must reproduce
  // the processor's phases exactly.
  PhaseResult Row, ColP;
  const auto [RowS, ColS] =
      drivePhases(C, Optimized, Rep.Plan, /*Sharded=*/true, Spans, Row, ColP);
  R.Ops.check(samePhase(Row, Rep.RowPhase) && samePhase(ColP, Rep.ColPhase),
              "PhaseEngine on a StackBackend reproduces the processor's "
              "phases");
  if (!Optimized) {
    // The window protocol's cost at K = 1, where it buys nothing: the
    // baseline column walk needs one PDES window per request.
    PhaseResult PlainRow, PlainCol;
    const double PlainColS = drivePhases(C, Optimized, Rep.Plan,
                                         /*Sharded=*/false, Spans, PlainRow,
                                         PlainCol)
                                 .second;
    R.Layer.push_back({"sim.pdes.k1_overhead_s", ColS - PlainColS, "s"});
    return;
  }
  R.Layer.push_back({"core.phase.row_s", RowS, "s"});
  R.Layer.push_back({"core.phase.col_s", ColS, "s"});

  // K = 2 must give the byte-identical report.
  SystemConfig C2 = C;
  C2.SimThreads = 2;
  AppReport K2;
  const double K2S =
      timeCall(Spans, "core.Fft2dProcessor::runOptimized(K=2)",
               [&] { K2 = Fft2dProcessor(C2).runOptimized(); });
  R.Ops.check(sameAppReport(K2, Rep), "K=2 report is identical to K=1");
  R.Layer.push_back({"sim.pdes.k2_speedup", WallS / K2S, "x"});

  // Extrapolation: the same cell under the default simulation budget.
  SystemConfig Capped = SystemConfig::forProblemSize(C.N);
  Capped.SimThreads = 1;
  AppReport CappedRep;
  timeCall(Spans, "core.Fft2dProcessor::runOptimized(capped)",
           [&] { CappedRep = Fft2dProcessor(Capped).runOptimized(); });
  R.Layer.push_back({"core.phase.extrap_err_pct",
                     std::fabs(double(CappedRep.EstimatedTotalTime) -
                               double(Rep.EstimatedTotalTime)) /
                         double(Rep.EstimatedTotalTime) * 100.0,
                     "%"});

  // Planner.
  const LayoutPlanner Planner(C.Mem.Geo, C.Mem.Time, ElementBytes);
  std::vector<double> PlanS;
  BlockPlan Plan;
  {
    // Batches of 100 calls keep the clock's own cost out of the figure.
    const Span S(Spans, "layout.LayoutPlanner::plan(101 x 100)");
    for (int I = 0; I != 101; ++I) {
      const Clock::time_point T0 = Clock::now();
      for (int J = 0; J != 100; ++J)
        Plan = Planner.plan(C.N, C.Optimized.VaultsParallel);
      PlanS.push_back(secondsBetween(T0, Clock::now()) / 100);
    }
  }
  R.Ops.check(Plan.W == Rep.Plan.W && Plan.H == Rep.Plan.H,
              "planner reproduces the processor's plan");
  R.Layer.push_back({"layout.plan_us", median(PlanS) * 1e6, "us"});
  R.Layer.push_back({"layout.block_w", double(Plan.W), "elem"});
  R.Layer.push_back({"layout.block_h", double(Plan.H), "elem"});

  // Two routes to one column phase: LayoutEvaluator (plain engine, fresh
  // device) vs Fft2dProcessor (sharded engine, after the row phase).
  {
    SystemConfig Small = SystemConfig::forProblemSize(256);
    Small.SimThreads = 1;
    AppReport P;
    PhaseResult E;
    timeCall(Spans, "core.eval_vs_processor(256)", [&] {
      P = Fft2dProcessor(Small).runOptimized();
      AddressStreams S(Small, true, P.Plan);
      E = LayoutEvaluator(Small).runColumnPhase(Small.Optimized, *S.Mid,
                                                *S.Out);
    });
    R.Layer.push_back(
        {"core.eval_proc_delta_ps",
         std::fabs(double(E.Elapsed) - double(P.ColPhase.Elapsed)), "sim_ps"});
  }

  // The program's own observability, attached.
  Tracer Trace;
  MetricsRegistry Metrics;
  Fft2dProcessor Attached(C);
  Attached.setObservability(&Trace, &Metrics);
  AppReport AttachedRep;
  const double AttachS =
      timeCall(Spans, "core.Fft2dProcessor::runOptimized(observed)",
               [&] { AttachedRep = Attached.runOptimized(); });
  R.Ops.check(sameAppReport(AttachedRep, Rep),
              "attaching observability leaves the report unchanged");
  R.Layer.push_back(
      {"obs.attach_overhead_pct", (AttachS - WallS) / WallS * 100.0, "%"});
  R.Layer.push_back(
      {"obs.trace_events", double(Trace.events().size()), "count"});
  R.Layer.push_back({"obs.dropped", double(Trace.dropped()), "count"});
}

void probeTuneLayers(const SystemConfig &C, const TuneResult &Result,
                     double WallS, SpanRecorder *Spans, WorkloadResult &R) {
  // Rebuild each candidate's layouts exactly as AutoTuner::tune does.
  const std::uint64_t N = C.N;
  const std::uint64_t Stride =
      roundUp(N * N * ElementBytes, C.Mem.Geo.RowBufferBytes);
  const LayoutEvaluator Evaluator(C);
  std::vector<double> EvalS;
  const TuneCandidate *Eq1 = nullptr;
  for (const TuneCandidate &Cand : Result.Candidates) {
    std::unique_ptr<DataLayout> Mid, Out;
    switch (Cand.Kind) {
    case LayoutKind::RowMajor:
      Mid = std::make_unique<RowMajorLayout>(N, N, ElementBytes, Stride);
      Out = std::make_unique<RowMajorLayout>(N, N, ElementBytes, 2 * Stride);
      break;
    case LayoutKind::ColMajor:
      Mid = std::make_unique<ColMajorLayout>(N, N, ElementBytes, Stride);
      Out = std::make_unique<ColMajorLayout>(N, N, ElementBytes, 2 * Stride);
      break;
    case LayoutKind::Tiled:
      Mid = std::make_unique<TiledLayout>(TiledLayout::forRowBuffer(
          N, N, ElementBytes, Stride, C.Mem.Geo.RowBufferBytes));
      Out = std::make_unique<TiledLayout>(TiledLayout::forRowBuffer(
          N, N, ElementBytes, 2 * Stride, C.Mem.Geo.RowBufferBytes));
      break;
    case LayoutKind::BlockDynamic:
      Mid = std::make_unique<BlockDynamicLayout>(N, N, ElementBytes, Stride,
                                                 Cand.W, Cand.H, Cand.Skew);
      Out = std::make_unique<BlockDynamicLayout>(
          N, N, ElementBytes, 2 * Stride, Cand.W, Cand.H, Cand.Skew);
      break;
    }
    LayoutMetrics M;
    EvalS.push_back(timeCall(Spans, "core.LayoutEvaluator::evaluate", [&] {
      M = Evaluator.evaluate(C.Optimized, *Mid, *Out);
    }));
    R.Ops.check(samePhase(M.RowPhase, Cand.Metrics.RowPhase) &&
                    samePhase(M.ColPhase, Cand.Metrics.ColPhase),
                "LayoutEvaluator reproduces the tuner's metrics for " +
                    Cand.Name);
    if (Cand.Eq1Pick)
      Eq1 = &Cand;
  }
  R.Layer.push_back({"core.tune.eval_s_p50", median(EvalS), "s"});
  R.Layer.push_back({"core.tune.evals", double(EvalS.size()), "count"});
  R.Ops.check(Eq1 != nullptr, "the tuner marks Eq. 1's pick");
  const double Best = Result.best().Metrics.AppGBps;
  const double Eq1GBps = Eq1 ? Eq1->Metrics.AppGBps : 0.0;
  R.Layer.push_back(
      {"core.tune.eq1_gap_pct", (Best - Eq1GBps) / Best * 100.0, "%"});
  double Busy = 0.0;
  for (const ThreadPool::WorkerStats &W : Result.PoolStats)
    Busy += W.BusySeconds;
  R.Layer.push_back({"support.pool.busy_frac", Busy / WallS, "ratio"});
}

} // namespace perfbench
