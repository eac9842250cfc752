//===- Trace.h - In-memory span recorder for the benchmark -------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the product's
/// public entry points: name, start, end, parent span and request id. The
/// recorder keeps everything in memory and writes it out once, at the end
/// of a traced run, as Chrome trace-event JSON (opens in Perfetto).
///
/// Two kinds of span exist. Measured spans are timed with the
/// benchmark's own steady clock around a call. Derived spans sit inside a
/// measured one and take their duration from a counter the product
/// returns (for example the scheduler wall time inside verifyModule); they
/// are laid out in pipeline order and marked "derived" in the export.
///
/// When tracing is off every call is a no-op returning span id -1.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_TRACE_H
#define VERDICTBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vb {

/// Nanoseconds on the steady clock.
uint64_t nowNs();

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  bool on() const { return On; }

  /// Opens a measured span now; close it with end().
  int begin(const std::string &Name, int Parent, uint64_t Request);
  void end(int Span);
  /// Records a derived span [\p StartNs, \p StartNs + \p Seconds).
  int derived(const std::string &Name, int Parent, uint64_t Request,
              uint64_t StartNs, double Seconds);
  uint64_t startOf(int Span) const;

  /// Self time per span name in seconds: each span's duration minus the
  /// part of it that its children's intervals cover, summed over spans of
  /// that name.
  std::map<std::string, double> selfSeconds() const;

  /// Writes every span as Chrome trace-event JSON. Returns false when the
  /// file cannot be written.
  bool writeChrome(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int Parent = -1;
    uint64_t Request = 0;
    unsigned Thread = 0;
    bool Derived = false;
  };

  const bool On;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// A recorder that is always off, for untraced passes of a traced run.
Tracer &disabledTracer();

/// Measured span for the enclosing scope.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, int Parent, uint64_t Request)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

} // namespace vb

#endif // VERDICTBENCH_TRACE_H
