//===- perfbench/Spans.h - In-memory spans around layer calls ---*- C++ -*-===//
//
// Part of the fft3d project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. A Span wraps one call into a layer's
/// public API from the benchmark's own code and records its name, start,
/// end and the enclosing span. Spans stay in memory until the run ends;
/// then they are written out (Chrome trace JSON) and reduced to per-name
/// self time: a span's duration minus the part its child spans cover.
/// With a null recorder a Span records nothing, so the untraced run pays
/// one pointer test per call.
///
//===----------------------------------------------------------------------===//

#ifndef FFT3D_PERFBENCH_SPANS_H
#define FFT3D_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct SpanRecord {
  const char *Name = "";
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  /// Index of the enclosing span, or -1 at top level.
  std::int64_t Parent = -1;
};

/// Per-name reduction of a recorder's spans.
struct SpanSummary {
  std::string Name;
  std::uint64_t Count = 0;
  double TotalS = 0.0;
  double SelfS = 0.0;
};

class SpanRecorder {
public:
  SpanRecorder() : Origin(Clock::now()) {}

  /// Opens a span named \p Name (a string literal) under the innermost
  /// open span; returns its index.
  std::size_t open(const char *Name);
  void close(std::size_t Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Per-name count, total and self time, in first-seen order.
  std::vector<SpanSummary> summarize() const;

  /// Chrome trace-event JSON ("X" events, one track); each event's args
  /// carry its parent index.
  void writeChromeTrace(std::ostream &OS) const;

private:
  std::int64_t nowNs() const;

  Clock::time_point Origin;
  std::vector<SpanRecord> Spans;
  std::vector<std::size_t> OpenStack;
};

/// RAII span; no-op when \p Recorder is null.
class Span {
public:
  Span(SpanRecorder *Recorder, const char *Name) : Recorder(Recorder) {
    if (Recorder)
      Index = Recorder->open(Name);
  }
  ~Span() {
    if (Recorder)
      Recorder->close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecorder *Recorder;
  std::size_t Index = 0;
};

/// Host seconds of one call into the program, inside a span named \p Name
/// when \p Spans is non-null.
template <typename Fn>
double timeCall(SpanRecorder *Spans, const char *Name, Fn &&Call) {
  const Span S(Spans, Name);
  const Clock::time_point T0 = Clock::now();
  Call();
  return secondsBetween(T0, Clock::now());
}

} // namespace perfbench

#endif // FFT3D_PERFBENCH_SPANS_H
