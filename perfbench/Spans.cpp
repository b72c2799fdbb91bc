//===- perfbench/Spans.cpp - In-memory spans around layer calls -----------===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

std::size_t SpanRecorder::open(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = OpenStack.empty() ? -1
                               : static_cast<std::int64_t>(OpenStack.back());
  R.StartNs = nowNs();
  Spans.push_back(R);
  OpenStack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanRecorder::close(std::size_t Index) {
  Spans[Index].EndNs = nowNs();
  // Spans are RAII-scoped, so the closing span is the innermost open one.
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
}

std::vector<SpanSummary> SpanRecorder::summarize() const {
  // Children of one parent never overlap (single thread, strictly
  // nested), so the covered part of a span is the sum of its children.
  std::vector<std::int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<std::size_t>(S.Parent)] += S.EndNs - S.StartNs;

  std::vector<SpanSummary> Out;
  std::map<std::string, std::size_t> Slot;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    const auto [It, New] = Slot.emplace(S.Name, Out.size());
    if (New)
      Out.push_back({S.Name, 0, 0.0, 0.0});
    SpanSummary &Sum = Out[It->second];
    const std::int64_t Dur = S.EndNs - S.StartNs;
    ++Sum.Count;
    Sum.TotalS += static_cast<double>(Dur) * 1e-9;
    Sum.SelfS += static_cast<double>(std::max<std::int64_t>(
                     Dur - ChildNs[I], 0)) *
                 1e-9;
  }
  return Out;
}

void SpanRecorder::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"traceEvents\": [\n";
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %lld}}",
                  S.Name, static_cast<double>(S.StartNs) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                  static_cast<long long>(S.Parent));
    OS << Line << (I + 1 == Spans.size() ? "\n" : ",\n");
  }
  OS << "]}\n";
}

} // namespace perfbench
