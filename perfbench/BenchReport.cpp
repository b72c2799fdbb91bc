//===- perfbench/BenchReport.cpp - Metrics, statistics, accounting --------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  const std::size_t Mid = Samples.size() / 2;
  if (Samples.size() % 2 == 1)
    return Samples[Mid];
  return (Samples[Mid - 1] + Samples[Mid]) / 2.0;
}

double percentileNearestRank(std::vector<double> Samples, double Fraction) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  const double Rank = std::ceil(Fraction * static_cast<double>(Samples.size()));
  const std::size_t Index =
      Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

void Tally::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  ++Attempted;
  ++Failed;
  Broken.push_back(What);
}

double Tally::failedFrac() const {
  if (Attempted == 0)
    return 1.0;
  return static_cast<double>(Failed + Dropped) /
         static_cast<double>(Attempted);
}

void Tally::mergeFrom(const Tally &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  Dropped += Other.Dropped;
  Broken.insert(Broken.end(), Other.Broken.begin(), Other.Broken.end());
}

const std::vector<MetricSpec> &endToEndSpecs() {
  static const std::vector<MetricSpec> Specs = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"ok_frac", "ratio"},
      {"sim_time_us", "sim_us"},
  };
  return Specs;
}

const std::vector<MetricSpec> &perLayerSpecs() {
  // Simulated quantities carry a "sim_" unit so they are never read as
  // host time; ".opt" / ".base" name the sim_opt_4096 / sim_base_1024
  // workload a figure was measured on.
  static const std::vector<MetricSpec> Specs = {
      {"core.trace.ns_per_req.opt", "ns"},
      {"core.trace.ns_per_req.base", "ns"},
      {"core.phase.row_s", "s"},
      {"core.phase.col_s", "s"},
      {"core.phase.ns_per_event.opt", "ns"},
      {"core.phase.ns_per_event.base", "ns"},
      {"core.phase.events_per_req.opt", "event/req"},
      {"core.phase.events_per_req.base", "event/req"},
      {"core.phase.extrap_err_pct", "%"},
      {"core.tune.eval_s_p50", "s"},
      {"core.tune.evals", "count"},
      {"core.tune.eq1_gap_pct", "%"},
      {"core.eval_proc_delta_ps", "sim_ps"},
      {"sim.events.opt", "count"},
      {"sim.events.base", "count"},
      {"sim.events_per_s.opt", "1/s"},
      {"sim.events_per_s.base", "1/s"},
      {"sim.pdes.windows.opt", "count"},
      {"sim.pdes.windows.base", "count"},
      {"sim.pdes.windows_per_req.opt", "window/req"},
      {"sim.pdes.windows_per_req.base", "window/req"},
      {"sim.pdes.stream_windows.opt", "count"},
      {"sim.pdes.stream_windows.base", "count"},
      {"sim.pdes.barriers.opt", "count"},
      {"sim.pdes.barriers.base", "count"},
      {"sim.pdes.k1_overhead_s", "s"},
      {"sim.pdes.k2_speedup", "x"},
      {"mem3d.decode.ns_per_req.opt", "ns"},
      {"mem3d.decode.ns_per_req.base", "ns"},
      {"mem3d.row_activations.opt", "count"},
      {"mem3d.row_activations.base", "count"},
      {"mem3d.bytes_per_activation.opt", "B"},
      {"mem3d.bytes_per_activation.base", "B"},
      {"mem3d.row_hit_rate.opt", "ratio"},
      {"mem3d.row_hit_rate.base", "ratio"},
      {"mem3d.mean_req_lat_ns.opt", "sim_ns"},
      {"mem3d.mean_req_lat_ns.base", "sim_ns"},
      {"mem3d.peak_util.opt", "ratio"},
      {"mem3d.peak_util.base", "ratio"},
      {"layout.plan_us", "us"},
      {"layout.block_w", "elem"},
      {"layout.block_h", "elem"},
      {"paper.opt_4096_err_pct", "%"},
      {"paper.tune_2048_err_pct", "%"},
      {"serve.prewarm_s", "s"},
      {"serve.policy.us_per_job", "us"},
      {"serve.fleet.hash.us_per_job", "us"},
      {"serve.fleet.least_loaded.us_per_job", "us"},
      {"serve.fleet.affinity.us_per_job", "us"},
      {"serve.fleet.hash.p50_ms", "sim_ms"},
      {"serve.fleet.least_loaded.p50_ms", "sim_ms"},
      {"serve.fleet.affinity.p50_ms", "sim_ms"},
      {"serve.fleet.hash.p99_ms", "sim_ms"},
      {"serve.fleet.least_loaded.p99_ms", "sim_ms"},
      {"serve.fleet.affinity.p99_ms", "sim_ms"},
      {"serve.fleet.hash.shed", "count"},
      {"serve.fleet.least_loaded.shed", "count"},
      {"serve.fleet.affinity.shed", "count"},
      {"serve.cache.hit_rate", "ratio"},
      {"serve.cache.misses", "count"},
      {"serve.fleet.peak_outstanding", "count"},
      {"serve.slo_attain", "ratio"},
      {"cluster.run2d_s", "s"},
      {"cluster.run2d_fail_s", "s"},
      {"cluster.compute2d_s", "s"},
      {"cluster.loss2d_s", "s"},
      {"cluster.xfer.messages", "count"},
      {"cluster.xfer.bytes", "B"},
      {"cluster.exchange_us", "sim_us"},
      {"cluster.retransmits", "count"},
      {"fault.recovery_us", "sim_us"},
      {"fft.ref2d_s", "s"},
      {"fft.mflops", "Mflop/s"},
      {"support.pool.busy_frac", "ratio"},
      {"obs.trace_overhead_pct.sim_opt_4096", "%"},
      {"obs.trace_overhead_pct.sim_base_1024", "%"},
      {"obs.trace_overhead_pct.tune_2048", "%"},
      {"obs.trace_overhead_pct.serve_mix", "%"},
      {"obs.trace_overhead_pct.cluster_4x", "%"},
      {"obs.attach_overhead_pct", "%"},
      {"obs.trace_events", "count"},
      {"obs.dropped", "count"},
  };
  return Specs;
}

bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(Name.front())))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '-';
  });
}

std::vector<std::string> coverageErrors(const std::vector<Metric> &Got,
                                        const std::vector<MetricSpec> &Want) {
  std::vector<std::string> Errors;
  std::map<std::string, const Metric *> ByName;
  for (const Metric &M : Got) {
    if (!validMetricName(M.Name))
      Errors.push_back("bad metric name '" + M.Name + "'");
    if (!std::isfinite(M.Value))
      Errors.push_back("non-finite value for " + M.Name);
    if (!ByName.emplace(M.Name, &M).second)
      Errors.push_back("duplicate metric " + M.Name);
  }
  for (const MetricSpec &S : Want) {
    const auto It = ByName.find(S.Name);
    if (It == ByName.end()) {
      Errors.push_back(std::string("missing metric ") + S.Name);
      continue;
    }
    if (It->second->Unit != S.Unit)
      Errors.push_back(std::string("metric ") + S.Name + " has unit '" +
                       It->second->Unit + "', want '" + S.Unit + "'");
    ByName.erase(It);
  }
  for (const auto &[Name, M] : ByName)
    Errors.push_back("unexpected metric " + Name);
  return Errors;
}

void writeResultLine(std::ostream &OS, bool Correct, std::uint64_t Attempted,
                     std::uint64_t Failed, const std::vector<Metric> &Metrics) {
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (std::size_t I = 0; I != Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g",
                  std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
    OS << (I ? ", " : "") << '"' << Metrics[I].Name << "\": {\"value\": "
       << Value << ", \"unit\": \"" << Metrics[I].Unit << "\"}";
  }
  OS << "}}\n";
}

} // namespace perfbench
