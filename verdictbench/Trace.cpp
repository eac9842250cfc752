//===- Trace.cpp - In-memory span recorder for the benchmark --------------===//

#include "Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

using namespace vb;

uint64_t vb::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Small dense per-thread id for the export's "tid" field.
unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next++;
  return Index;
}

} // namespace

Tracer &vb::disabledTracer() {
  static Tracer Off(false);
  return Off;
}

int Tracer::begin(const std::string &Name, int Parent, uint64_t Request) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Request = Request;
  S.Thread = threadIndex();
  S.StartNs = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  uint64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

int Tracer::derived(const std::string &Name, int Parent, uint64_t Request,
                    uint64_t StartNs, double Seconds) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Request = Request;
  S.Thread = threadIndex();
  S.StartNs = StartNs;
  S.EndNs = StartNs + static_cast<uint64_t>(Seconds > 0 ? Seconds * 1e9 : 0);
  S.Derived = true;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

uint64_t Tracer::startOf(int Id) const {
  if (Id < 0)
    return 0;
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans[static_cast<size_t>(Id)].StartNs;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Children may run concurrently (serve clients) or, for derived spans,
  // overrun their parent: a parent loses the union of its children's
  // intervals clipped to its own, never more.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Covered(
      Spans.size());
  for (const Span &S : Spans) {
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[static_cast<size_t>(S.Parent)];
    uint64_t From = std::max(S.StartNs, P.StartNs);
    uint64_t To = std::min(S.EndNs, P.EndNs);
    if (From < To)
      Covered[static_cast<size_t>(S.Parent)].emplace_back(From, To);
  }
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::vector<std::pair<uint64_t, uint64_t>> &C = Covered[I];
    std::sort(C.begin(), C.end());
    uint64_t Union = 0, Reach = 0;
    for (const auto &[From, To] : C) {
      uint64_t Start = std::max(From, Reach);
      if (To > Start)
        Union += To - Start;
      Reach = std::max(Reach, To);
    }
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - Union) * 1e-9;
  }
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  isq::json::JsonWriter W;
  W.beginObject();
  W.key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.key("name").value(S.Name);
    W.key("ph").value("X");
    W.key("pid").value(1);
    W.key("tid").value(S.Thread);
    W.key("ts").value(static_cast<double>(S.StartNs - Origin) * 1e-3);
    W.key("dur").value(static_cast<double>(S.EndNs - S.StartNs) * 1e-3);
    W.key("args").beginObject();
    W.key("span").value(static_cast<uint64_t>(I));
    W.key("parent").value(static_cast<int64_t>(S.Parent));
    W.key("request").value(S.Request);
    W.key("derived").value(S.Derived);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path);
  Out << W.take() << "\n";
  return static_cast<bool>(Out);
}
