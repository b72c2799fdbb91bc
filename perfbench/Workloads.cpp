//===- perfbench/Workloads.cpp - The benchmark's five workloads -----------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
//
// Why these five: sim_opt_4096 is the paper's Table 2 cell simulated in
// full (row-buffer-streaming bursts, few PDES windows per request);
// sim_base_1024 drives the same layers the other way (blocking window 1,
// stride-N column walk, a row miss and a window per request);
// tune_2048 is the only workload on LayoutEvaluator's plain-EventQueue
// path; serve_mix is the serving tier's per-job host cost with the
// simulation memoized away; cluster_4x is the only one whose host time
// goes to the slab decomposition, the interconnect model, fault recovery
// and the host FFT kernels.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Probes.h"

#include "cluster/ClusterFftProcessor.h"
#include "cluster/ClusterLayoutPlanner.h"
#include "core/AutoTuner.h"
#include "core/Fft2dProcessor.h"
#include "fault/FaultSpec.h"
#include "fft/Complex.h"
#include "fft/Fft2d.h"
#include "layout/LayoutPlanner.h"
#include "mem3d/Backend.h"
#include "serve/ServeSimulator.h"
#include "serve/ServiceModel.h"
#include "serve/fleet/FleetSimulator.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>

using namespace fft3d;

namespace perfbench {

namespace {

double micros(Picos T) { return static_cast<double>(T) / 1e6; }

/// Times \p Batch back-to-back runs of the set-up \p Body as one sample
/// of host seconds per set-up (a single run when the run has no time
/// budget). Set-ups of a few microseconds are timed in batches so the
/// clock's own cost and granularity stay out of the figure. With a budget,
/// one untimed set-up runs first: samples taken right after a timed
/// iteration would otherwise time the caches that iteration left cold,
/// and the fastest sample would always come from the few milliseconds
/// before the timed loop, one moment of the host's load.
template <typename Fn>
void sampleSetup(const RunOptions &O, unsigned Batch, std::vector<double> &Out,
                 Fn &Body) {
  if (O.Seconds <= 0)
    Batch = 1;
  else
    Body();
  const Clock::time_point T0 = Clock::now();
  for (unsigned J = 0; J != Batch; ++J)
    Body();
  Out.push_back(secondsBetween(T0, Clock::now()) / Batch);
}

/// Set-up samples taken before the timed loop (one without a budget).
template <typename Fn>
void setupBefore(const RunOptions &O, unsigned Samples, unsigned Batch,
                 std::vector<double> &Out, Fn &Body) {
  for (unsigned I = 0; I != (O.Seconds > 0 ? Samples : 1u); ++I)
    sampleSetup(O, Batch, Out, Body);
}

/// Repeats \p Iteration until the run's budget is spent (at least once).
/// \p Between runs after every iteration but the last; the workloads take
/// one more set-up sample there, so set-up samples span the whole run
/// instead of one moment of the host's load.
template <typename Fn, typename Gn>
void timedLoop(const RunOptions &O, Fn &&Iteration, Gn &&Between) {
  const Clock::time_point Start = Clock::now();
  for (;;) {
    Iteration();
    if (O.Seconds <= 0 || secondsBetween(Start, Clock::now()) >= O.Seconds)
      return;
    Between();
  }
}

/// Appends one iteration's per-call host seconds (and their sum).
void recordIteration(WorkloadResult &R, const std::vector<double> &Calls) {
  R.CallS.resize(Calls.size());
  double Sum = 0.0;
  for (std::size_t C = 0; C != Calls.size(); ++C) {
    R.CallS[C].push_back(Calls[C]);
    Sum += Calls[C];
  }
  R.WallS.push_back(Sum);
}

double pctError(double Got, double Want) {
  return std::fabs(Got - Want) / Want * 100.0;
}

//===----------------------------------------------------------------------===//
// sim_opt_4096 / sim_base_1024
//===----------------------------------------------------------------------===//

/// The paper's cell simulated in full: no extrapolation budget.
SystemConfig uncappedConfig(std::uint64_t N) {
  SystemConfig C = SystemConfig::forProblemSize(N);
  C.MaxSimBytesPerDirection = std::numeric_limits<std::uint64_t>::max();
  C.MaxSimOpsPerDirection = std::numeric_limits<std::uint64_t>::max();
  C.SimThreads = 1;
  return C;
}

/// Every phase of a correct 2D FFT reads and writes exactly one N x N
/// complex matrix, in full.
void checkPhase(const PhaseResult &P, std::uint64_t N, const char *Phase,
                Tally &Ops) {
  const std::uint64_t Volume = N * N * ElementBytes;
  Ops.attempt(P.Ops);
  Ops.fail(P.OfflineFailed);
  Ops.check(P.BytesRead == Volume,
            std::string(Phase) + ": bytes read equal the phase volume");
  Ops.check(P.BytesWritten == Volume,
            std::string(Phase) + ": bytes written equal the phase volume");
  Ops.check(P.TotalPhaseBytes == 2 * Volume,
            std::string(Phase) + ": phase volume is read + write");
  Ops.check(!P.Truncated, std::string(Phase) + ": simulated in full");
}

WorkloadResult runSim(const RunOptions &O, std::uint64_t N, bool Optimized) {
  WorkloadResult R;
  std::optional<Fft2dProcessor> Proc;
  BlockPlan Plan;
  // The processor's own set-up: config validation (the constructor),
  // the Eq. 1 plan (optimized only) and the stack it simulates on.
  const auto Setup = [&] {
    const SystemConfig C = uncappedConfig(N);
    Proc.emplace(C);
    if (Optimized)
      Plan = LayoutPlanner(C.Mem.Geo, C.Mem.Time, ElementBytes)
                 .plan(N, C.Optimized.VaultsParallel);
    const StackBackend Stack(C.Mem, C.SimThreads);
  };
  constexpr unsigned Batch = 200;
  setupBefore(O, 21, Batch, R.SetupS, Setup);

  std::optional<AppReport> First;
  AppReport Rep;
  timedLoop(O, [&] {
    recordIteration(
        R, {timeCall(O.Spans,
                     Optimized ? "core.Fft2dProcessor::runOptimized"
                               : "core.Fft2dProcessor::runBaseline",
                     [&] {
                       Rep = Optimized ? Proc->runOptimized()
                                       : Proc->runBaseline();
                     })});
    checkPhase(Rep.RowPhase, N, "row phase", R.Ops);
    checkPhase(Rep.ColPhase, N, "column phase", R.Ops);
    if (!First)
      First = Rep;
    else
      R.Ops.check(sameAppReport(Rep, *First),
                  "repeated run reproduces the report");
  }, [&] { sampleSetup(O, Batch, R.SetupS, Setup); });
  R.SimTimeUs = micros(Rep.EstimatedTotalTime);

  if (Optimized) {
    R.Ops.check(Plan.W == Rep.Plan.W && Plan.H == Rep.Plan.H,
                "the run used the plan its set-up made");
    const double PaperErr = pctError(Rep.AppThroughputGBps, 25.6);
    R.Notes.push_back({"paper_err_pct", PaperErr, "%"});
    if (O.Spans)
      R.Layer.push_back({"paper.opt_4096_err_pct", PaperErr, "%"});
  } else {
    R.NotApplicable.push_back(
        "paper_err_pct: the paper has no fully simulated 1024^2 baseline "
        "cell");
  }

  if (O.Spans)
    probeSimLayers(Proc->config(), Optimized, Rep, median(R.WallS), O.Spans,
                   R);
  return R;
}

WorkloadResult runSimOpt4096(const RunOptions &O) {
  return runSim(O, 4096, /*Optimized=*/true);
}

WorkloadResult runSimBase1024(const RunOptions &O) {
  return runSim(O, 1024, /*Optimized=*/false);
}

//===----------------------------------------------------------------------===//
// tune_2048
//===----------------------------------------------------------------------===//

WorkloadResult runTune2048(const RunOptions &O) {
  WorkloadResult R;
  std::optional<AutoTuner> Tuner;
  SystemConfig Config;
  const auto Setup = [&] {
    Config = SystemConfig::forProblemSize(2048);
    Config.SimThreads = 1;
    TuneOptions Options;
    Options.Threads = 1;
    Tuner.emplace(Config, Options);
  };
  constexpr unsigned Batch = 2000;
  setupBefore(O, 21, Batch, R.SetupS, Setup);

  TuneResult Result;
  std::optional<double> FirstTime;
  timedLoop(O, [&] {
    recordIteration(R, {timeCall(O.Spans, "core.AutoTuner::tune",
                                 [&] { Result = Tuner->tune(); })});
    R.Ops.attempt(Result.Candidates.size());
    for (const TuneCandidate &C : Result.Candidates)
      R.Ops.fail(C.Metrics.RowPhase.OfflineFailed +
                 C.Metrics.ColPhase.OfflineFailed);
    R.Ops.check(!Result.Candidates.empty() &&
                    Result.best().Metrics.AppGBps > 0.0,
                "tuner returns a best candidate with nonzero throughput");
    R.Ops.check(
        Result.eq1WithinFractionOfBest(0.10, TuneObjective::Throughput),
        "Eq. 1's pick is within 10% of the best candidate");
    const TuneCandidate &Best = Result.best();
    const double Time = micros(Best.Metrics.RowPhase.EstimatedPhaseTime +
                               Best.Metrics.ColPhase.EstimatedPhaseTime);
    if (!FirstTime)
      FirstTime = Time;
    R.Ops.check(Time == *FirstTime, "repeated tune reproduces the result");
    R.SimTimeUs = Time;
  }, [&] { sampleSetup(O, Batch, R.SetupS, Setup); });

  for (const TuneCandidate &C : Result.Candidates)
    if (C.Eq1Pick) {
      const double PaperErr = pctError(C.Metrics.ColPhase.ThroughputGBps, 32.0);
      R.Notes.push_back({"paper_err_pct", PaperErr, "%"});
      if (O.Spans)
        R.Layer.push_back({"paper.tune_2048_err_pct", PaperErr, "%"});
    }

  if (O.Spans)
    probeTuneLayers(Config, Result, median(R.WallS), O.Spans, R);
  return R;
}

//===----------------------------------------------------------------------===//
// serve_mix
//===----------------------------------------------------------------------===//

constexpr unsigned ServeTraceJobs = 100000;
constexpr double ServeRate = 80.0;
constexpr std::uint64_t FleetJobs = 1000000;
constexpr double FleetRate = 240.0;
constexpr unsigned FleetStacks = 4;
constexpr unsigned FleetTenants = 32;
/// The fleet's stream and hash ring come from a fixed seed (fleet_sweep's)
/// rather than --seed: the affinity router's shedding swings between 16%
/// and 60% of the stream from one seed to the next (its open collapse),
/// which would swamp every bound. --seed draws the serving trace.
constexpr std::uint64_t FleetSeed = 42;

const std::array<PolicyKind, 4> ServePolicies = {
    PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::PriorityAging,
    PolicyKind::VaultPartition};
const std::array<RoutePolicy, 3> FleetRouters = {
    RoutePolicy::Hash, RoutePolicy::LeastLoaded, RoutePolicy::Affinity};
const std::array<const char *, 3> RouterKeys = {"hash", "least_loaded",
                                                "affinity"};

WorkloadResult runServeMix(const RunOptions &O) {
  WorkloadResult R;
  const std::vector<JobTemplate> Mix = mixedWorkloadTemplates();
  std::unique_ptr<ServiceModel> Model;
  std::unique_ptr<TraceWorkload> Load;
  std::vector<double> PrewarmS;
  // Set-up: memoize the mix's service times (full machine and the
  // vault-partition share, as the serving CLI does), then draw the trace.
  const auto Setup = [&] {
    Model = std::make_unique<ServiceModel>(MemoryConfig());
    std::vector<std::pair<std::uint64_t, unsigned>> Keys;
    const unsigned Share = Model->totalVaults() / PolicyOptions().Partitions;
    for (const JobTemplate &T : Mix) {
      Keys.emplace_back(T.N, Model->totalVaults());
      Keys.emplace_back(T.N, Share);
    }
    ThreadPool Pool(1);
    const Clock::time_point T0 = Clock::now();
    Model->prewarm(Keys, Pool);
    PrewarmS.push_back(secondsBetween(T0, Clock::now()));
    Load = std::make_unique<TraceWorkload>(
        generatePoissonTrace(Mix, ServeTraceJobs, ServeRate, O.Seed, *Model));
  };
  setupBefore(O, 3, 1, R.SetupS, Setup);

  std::uint64_t Offered = 0, Attained = 0;
  double EndTimeUs = 0.0;
  const auto Account = [&](const SloSummary &S, std::uint64_t Expected,
                           Picos EndTime, const std::string &Run) {
    R.Ops.attempt(S.Offered);
    R.Ops.drop(S.Shed);
    R.Ops.fail(S.FailedDropped);
    R.Ops.check(S.Offered == Expected, Run + ": every job is offered");
    R.Ops.check(S.Offered == S.Completed + S.Shed,
                Run + ": offered = completed + shed");
    // Every job of the mix carries a deadline, so the miss rate's base
    // is the offered count and a shed job counts as missed.
    const auto Missed = static_cast<std::uint64_t>(std::llround(
        S.DeadlineMissRate * static_cast<double>(S.Offered)));
    Offered += S.Offered;
    Attained += S.Offered - std::min(Missed, S.Offered);
    EndTimeUs += micros(EndTime);
  };

  std::array<FleetResult, 3> Fleet;
  std::optional<double> FirstEnd;
  timedLoop(O, [&] {
    EndTimeUs = 0.0;
    std::vector<double> Calls;
    for (PolicyKind Kind : ServePolicies) {
      ServeResult SR;
      Calls.push_back(timeCall(O.Spans, "serve.ServeSimulator::run", [&] {
        const std::unique_ptr<SchedulerPolicy> Policy = createPolicy(Kind);
        ServeSimulator Sim(ServeConfig(), *Model);
        SR = Sim.run(*Load, *Policy);
      }));
      Account(SR.Summary, ServeTraceJobs, SR.EndTime,
              std::string("policy ") + policyKindName(Kind));
    }
    for (std::size_t I = 0; I != FleetRouters.size(); ++I) {
      Calls.push_back(timeCall(O.Spans, "serve.FleetSimulator::run", [&] {
        FleetConfig Config;
        Config.NumStacks = FleetStacks;
        Config.Router = FleetRouters[I];
        Config.RingSeed = FleetSeed;
        PoissonArrivalStream Stream(Mix, FleetJobs, FleetRate, FleetSeed,
                                    *Model, FleetTenants);
        Fleet[I] = FleetSimulator(Config, *Model).run(Stream);
      }));
      Account(Fleet[I].Summary, FleetJobs, Fleet[I].EndTime,
              std::string("router ") + RouterKeys[I]);
    }
    recordIteration(R, Calls);
    if (!FirstEnd)
      FirstEnd = EndTimeUs;
    R.Ops.check(EndTimeUs == *FirstEnd, "repeated runs reproduce the timeline");
  }, [&] { sampleSetup(O, 1, R.SetupS, Setup); });
  R.SimTimeUs = EndTimeUs;
  const double SloAttain =
      static_cast<double>(Attained) / static_cast<double>(Offered);
  R.Notes.push_back({"slo_attain", SloAttain, "ratio"});
  R.NotApplicable.push_back("paper_err_pct: the paper has no serving cell");

  if (O.Spans) {
    R.Layer.push_back({"serve.prewarm_s", median(PrewarmS), "s"});
    double PolicyS = 0.0;
    for (std::size_t C = 0; C != ServePolicies.size(); ++C)
      PolicyS += median(R.CallS[C]);
    R.Layer.push_back({"serve.policy.us_per_job",
                       PolicyS * 1e6 /
                           (ServePolicies.size() * double(ServeTraceJobs)),
                       "us"});
    std::uint64_t Hits = 0, Misses = 0, PeakOut = 0;
    for (std::size_t I = 0; I != Fleet.size(); ++I) {
      const std::string P = std::string("serve.fleet.") + RouterKeys[I];
      const SloSummary &S = Fleet[I].Summary;
      R.Layer.push_back({P + ".us_per_job",
                         median(R.CallS[ServePolicies.size() + I]) * 1e6 /
                             double(FleetJobs),
                         "us"});
      R.Layer.push_back({P + ".p50_ms", S.P50LatencyMs, "sim_ms"});
      R.Layer.push_back({P + ".p99_ms", S.P99LatencyMs, "sim_ms"});
      R.Layer.push_back({P + ".shed", double(S.Shed), "count"});
      Hits += Fleet[I].Cache.Hits;
      Misses += Fleet[I].Cache.Misses;
      PeakOut = std::max(PeakOut, Fleet[I].PeakOutstanding);
    }
    R.Layer.push_back({"serve.cache.hit_rate",
                       double(Hits) / double(std::max<std::uint64_t>(
                                          Hits + Misses, 1)),
                       "ratio"});
    R.Layer.push_back({"serve.cache.misses", double(Misses), "count"});
    R.Layer.push_back(
        {"serve.fleet.peak_outstanding", double(PeakOut), "count"});
    R.Layer.push_back({"serve.slo_attain", SloAttain, "ratio"});
  }
  return R;
}

//===----------------------------------------------------------------------===//
// cluster_4x
//===----------------------------------------------------------------------===//

constexpr std::uint64_t ClusterN = 2048;
constexpr unsigned ClusterStacks = 4;
constexpr unsigned ClusterFailedStack = ClusterStacks / 2;

bool bitIdentical(const Matrix &A, const Matrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         std::memcmp(A.storage().data(), B.storage().data(),
                     A.elements() * sizeof(CplxF)) == 0;
}

WorkloadResult runCluster4x(const RunOptions &O) {
  WorkloadResult R;
  ClusterConfig Healthy, Failing;
  Matrix In;
  const auto Setup = [&] {
    Healthy = ClusterConfig::forProblemSize(ClusterN, ClusterStacks);
    Healthy.Node.SimThreads = 1;
    Healthy.validate();
    // The stack-loss scenario exactly as degradation_sweep builds it.
    Failing = Healthy;
    auto Spec = std::make_shared<FaultSpec>();
    std::string Error;
    R.Ops.check(Spec->parse("stack_fail " +
                                std::to_string(ClusterFailedStack) +
                                " at 0.0001\n",
                            &Error),
                "stack_fail spec parses: " + Error);
    Failing.Node.Mem.Faults = Spec;
    const ClusterLayoutPlanner Planner(Healthy.Node.Mem.Geo,
                                       Healthy.Node.Mem.Time, ElementBytes);
    const ClusterPlan Plan =
        Planner.plan(ClusterN, ClusterStacks,
                     Healthy.Node.Optimized.VaultsParallel, Healthy.Placement);
    R.Ops.check(Plan.Stacks == ClusterStacks, "plan spans every stack");
    In = Matrix(ClusterN, ClusterN);
    Rng Random(O.Seed);
    for (CplxF &V : In.storage())
      V = CplxF(static_cast<float>(Random.nextDouble(-1, 1)),
                static_cast<float>(Random.nextDouble(-1, 1)));
  };
  setupBefore(O, 3, 1, R.SetupS, Setup);

  // The oracle, untimed: the host reference transform of the same input.
  Matrix Ref = In;
  const double RefS = timeCall(O.Spans, "fft.Fft2d::forward",
                               [&] { Fft2d(ClusterN, ClusterN).forward(Ref); });

  ClusterReport H, F;
  Matrix Out, Loss;
  std::optional<std::pair<Picos, Picos>> FirstTimes;
  timedLoop(O, [&] {
    recordIteration(
        R,
        {timeCall(O.Spans, "cluster.ClusterFftProcessor::run2d",
                  [&] { H = ClusterFftProcessor(Healthy).run2d(); }),
         timeCall(O.Spans, "cluster.ClusterFftProcessor::run2d(stack_fail)",
                  [&] { F = ClusterFftProcessor(Failing).run2d(); }),
         timeCall(O.Spans, "cluster.ClusterFftProcessor::compute2d",
                  [&] { Out = ClusterFftProcessor::compute2d(In, Healthy); }),
         timeCall(O.Spans,
                  "cluster.ClusterFftProcessor::compute2dWithStackLoss", [&] {
                    Loss = ClusterFftProcessor::compute2dWithStackLoss(
                        In, Healthy, ClusterFailedStack);
                  })});
    R.Ops.attempt(H.XferMessages + F.XferMessages + 2);
    R.Ops.fail(H.XferFailed);
    R.Ops.drop(F.XferFailed);
    R.Ops.check(F.SurvivorStacks == ClusterStacks - 1,
                "stack_fail leaves every other stack serving");
    R.Ops.check(bitIdentical(Out, Ref),
                "compute2d is 0 ulp from Fft2d::forward");
    R.Ops.check(bitIdentical(Loss, Ref),
                "compute2dWithStackLoss is 0 ulp from Fft2d::forward");
    if (!FirstTimes)
      FirstTimes = std::make_pair(H.TotalTime, F.TotalTime);
    R.Ops.check(*FirstTimes == std::make_pair(H.TotalTime, F.TotalTime),
                "repeated runs reproduce the reports");
  }, [&] { sampleSetup(O, 1, R.SetupS, Setup); });
  R.SimTimeUs = micros(H.TotalTime);
  R.NotApplicable.push_back(
      "paper_err_pct: the paper has no multi-stack cell");

  if (O.Spans) {
    R.Layer.push_back({"cluster.run2d_s", median(R.CallS[0]), "s"});
    R.Layer.push_back({"cluster.run2d_fail_s", median(R.CallS[1]), "s"});
    R.Layer.push_back({"cluster.compute2d_s", median(R.CallS[2]), "s"});
    R.Layer.push_back({"cluster.loss2d_s", median(R.CallS[3]), "s"});
    R.Layer.push_back(
        {"cluster.xfer.messages", double(H.XferMessages), "count"});
    R.Layer.push_back({"cluster.xfer.bytes", double(H.XferBytes), "B"});
    R.Layer.push_back({"cluster.exchange_us",
                       micros(H.ExchangeTime), "sim_us"});
    R.Layer.push_back({"cluster.retransmits",
                       double(H.Retransmits + F.Retransmits), "count"});
    R.Layer.push_back(
        {"fault.recovery_us",
         micros(F.CheckpointTime + F.DetectionTime + F.MigrationTime),
         "sim_us"});
    R.Layer.push_back({"fft.ref2d_s", RefS, "s"});
    const double Points = double(ClusterN * ClusterN);
    R.Layer.push_back(
        {"fft.mflops", 5.0 * Points * std::log2(Points) / RefS / 1e6,
         "Mflop/s"});
  }
  return R;
}

} // namespace

const std::vector<WorkloadInfo> &workloads() {
  static const std::vector<WorkloadInfo> All = {
      {"sim_opt_4096", runSimOpt4096}, {"sim_base_1024", runSimBase1024},
      {"tune_2048", runTune2048},      {"serve_mix", runServeMix},
      {"cluster_4x", runCluster4x},
  };
  return All;
}

const WorkloadInfo *findWorkload(const std::string &Name) {
  for (const WorkloadInfo &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::vector<Metric> endToEndMetrics(const WorkloadResult &R,
                                    double PeakRssMiB) {
  // Fastest samples: other tenants of a shared host only ever add time,
  // in bursts lasting seconds, so the minimum is the figure that repeats
  // across processes (the median and maximum are printed beside it).
  // Taking it per call lets each call find its own quiet stretch.
  double FastestWall = 0.0;
  for (const std::vector<double> &Call : R.CallS)
    FastestWall += percentileNearestRank(Call, 0.0);
  return {{"wall_s", FastestWall, "s"},
          {"setup_s", percentileNearestRank(R.SetupS, 0.0), "s"},
          {"peak_rss_mb", PeakRssMiB, "MiB"},
          {"ok_frac", 1.0 - R.Ops.failedFrac(), "ratio"},
          {"sim_time_us", R.SimTimeUs, "sim_us"}};
}

double peakRssMiB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
