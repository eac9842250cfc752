//===- main.cpp - The repository benchmark for the verdict path -----------===//
///
/// \file
/// One process runs one workload (paxos-deep, corpus-mix or serve-edits)
/// through the product's public entry points only: compileSource,
/// verifyModule, and an in-process serve::Server driven by
/// ServeClient::submit and read back with Server::stats. Every verdict is
/// checked against known_answers.txt.
///
///   verdictbench run --workload W --seed N --seconds S --trace 0|1
///                    --root REPO [--answers F] [--out-dir D] [--smoke]
///   verdictbench stream --workload W --seed N --root REPO [--smoke]
///   verdictbench pin --root REPO --answers F
///
/// A run repeats passes over the workload's job list until --seconds have
/// elapsed. Untraced (--trace 0) it prints the end-to-end metrics; traced
/// (--trace 1) it alternates untraced and traced passes, prints the
/// per-layer metrics of the traced ones plus the tracing overhead, and
/// writes the spans as a Chrome trace. The last line of standard output is
/// always the JSON result object. GLOSSARY.md defines every metric.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "MiniJson.h"
#include "Trace.h"

#include "driver/ReportRender.h"
#include "lang/Frontend.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Version.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <mutex>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace vb;
using namespace isq;

namespace {

//===----------------------------------------------------------------------===//
// Command line and workload shapes
//===----------------------------------------------------------------------===//

struct Args {
  std::string Mode = "run";
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 0; // required in run mode
  bool Trace = false;
  bool Smoke = false;
  std::string Root = ".";
  std::string Answers;
  std::string OutDir;
  std::string GitSha;
};

/// Concurrency of a workload. Engine threads per verification, serve
/// workers, and client connections; the run is refused when
/// Threads × Workers + Clients (or Threads alone, in process) exceeds nproc.
struct Shape {
  unsigned Threads = 1;
  unsigned Workers = 0;
  unsigned Clients = 0;
};

bool workloadShape(const std::string &W, Shape &S) {
  if (W == "paxos-deep")
    S = {2, 0, 0};
  else if (W == "corpus-mix")
    S = {1, 0, 0};
  else if (W == "serve-edits")
    S = {1, 2, 2};
  else
    return false;
  return true;
}

unsigned demand(const Shape &S) {
  return S.Workers ? S.Threads * S.Workers + S.Clients : S.Threads;
}

unsigned nproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string loadAverage() {
  std::ifstream In("/proc/loadavg");
  std::string First;
  In >> First;
  return First.empty() ? "unknown" : First;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

//===----------------------------------------------------------------------===//
// Verdict reports
//===----------------------------------------------------------------------===//

/// One verdict as the product reports it, read from its schema-versioned
/// JSON report. In-process verdicts go through renderJson first so that
/// both paths read the same fields the same way.
struct Report {
  Answer A;
  double TotalS = 0;
  std::map<std::string, double> Layers;
  double ExploreS = 0;
  double CheckWallS = 0;
  double CrossS = 0;
};

bool readReport(const std::string &Json, Report &R, std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Json, Doc, Error))
    return false;
  R = Report();
  R.A.Exit = static_cast<int>(Doc.num("exit_code", -1));
  R.TotalS = Doc.num("total_seconds");
  if (const JsonValue *Diags = Doc.get("diagnostics"))
    R.A.Diagnostics = Diags->Items.size();
  std::map<std::string, double> &L = R.Layers;
  if (const JsonValue *Conds = Doc.get("conditions")) {
    for (const JsonValue &C : Conds->Items) {
      const JsonValue *Name = C.get("name");
      for (size_t I = 0; Name && I < NumConditions; ++I) {
        if (Name->Str != ConditionNames[I])
          continue;
        R.A.Obligations[I] = static_cast<uint64_t>(C.num("obligations"));
        R.A.Failures[I] = static_cast<uint64_t>(C.num("failures"));
        std::string Family = std::string("check.") + ConditionNames[I];
        L[Family + ".obligations"] += C.num("obligations");
        L[Family + ".job_s"] += C.num("seconds");
        L["check.failures"] += C.num("failures");
      }
    }
  }
  if (const JsonValue *E = Doc.get("engine")) {
    R.A.Configs = static_cast<uint64_t>(E->num("configurations"));
    R.ExploreS = E->num("total_seconds");
    L["explore.s"] += R.ExploreS;
    L["explore.expand_s"] += E->num("expand_seconds");
    L["explore.merge_s"] += E->num("merge_seconds");
    L["explore.configs"] += E->num("configurations");
    L["explore.transitions"] += E->num("transitions");
    L["explore.hashcons_lookups"] += E->num("hash_cons_lookups");
    L["explore.hashcons_hits"] += E->num("hash_cons_hits");
    L["explore.transcache_lookups"] += E->num("transition_cache_lookups");
    L["explore.transcache_hits"] += E->num("transition_cache_hits");
    L["explore.canon_lookups"] += E->num("canon_calls");
    L["explore.canon_hits"] += E->num("canon_cache_hits");
    for (const char *Peak : {"frontier_peak", "interned_configs",
                             "interned_stores", "interned_pa_sets"})
      L[std::string("explore.") + Peak] = E->num(Peak);
  }
  if (const JsonValue *S = Doc.get("scheduler")) {
    R.CheckWallS = S->num("wall_seconds");
    L["check.wall_s"] += R.CheckWallS;
    L["check.cpu_s"] += S->num("cpu_seconds");
    L["check.thread_wall_s"] += R.CheckWallS * S->num("threads", 1);
    L["check.units"] += S->num("units");
    L["check.units_deduped"] += S->num("dedup_discarded");
  }
  if (const JsonValue *O = Doc.get("obligations")) {
    L["obcache.hits"] += O->num("cache_hits");
    L["obcache.misses"] += O->num("cache_misses");
  }
  if (const JsonValue *X = Doc.get("cross_check")) {
    R.A.ConfigsP = static_cast<uint64_t>(X->num("configs_p"));
    R.A.ConfigsPPrime = static_cast<uint64_t>(X->num("configs_p_prime"));
    R.CrossS = X->num("seconds");
    L["crosscheck.s"] += R.CrossS;
    L["crosscheck.configs_p"] += X->num("configs_p");
    L["crosscheck.configs_pprime"] += X->num("configs_p_prime");
  }
  return true;
}

/// Folds a layer value into a pass's sums: peaks and arena occupancies
/// take the maximum, everything else adds up.
void mergeLayer(std::map<std::string, double> &Into, const std::string &Name,
                double V) {
  bool Peak = Name.find("peak") != std::string::npos ||
              Name.find("interned") != std::string::npos;
  Into[Name] = Peak ? std::max(Into[Name], V) : Into[Name] + V;
}

/// Lays the layers the report times out inside the verify span, in
/// pipeline order: compile, exploration of the IS universe, the obligation
/// checker, the cross-check. The report's exploration time covers the
/// universe and, when the cross-check ran, its explorations of P and P′;
/// \p UniverseS is the universe's share. Returns the unattributed
/// remainder, the verify span's self time.
double attributeVerify(Tracer &T, int VerifySpan, uint64_t Request,
                       uint64_t StartNs, double VerifyS, const Report &R,
                       double CompileS, double UniverseS) {
  if (T.on()) {
    uint64_t At = StartNs;
    auto Place = [&](const char *Name, double Secs) {
      int Id = T.derived(Name, VerifySpan, Request, At, Secs);
      At += static_cast<uint64_t>(std::max(0.0, Secs) * 1e9);
      return Id;
    };
    Place("verify.compile", CompileS);
    Place("verify.explore", UniverseS);
    Place("verify.check", R.CheckWallS);
    uint64_t CrossAt = At;
    int Cross = Place("verify.crosscheck", R.CrossS);
    if (R.CrossS > 0)
      T.derived("verify.crosscheck.explore", Cross, Request, CrossAt,
                std::max(0.0, R.ExploreS - UniverseS));
  }
  return VerifyS - CompileS - UniverseS - R.CheckWallS - R.CrossS;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// serve-edits cache outcomes of one edit kind.
struct EditTally {
  uint64_t Requests = 0;
  uint64_t VerdictHits = 0;
  uint64_t ObHits = 0;
  uint64_t ObMisses = 0;

  EditTally &operator+=(const EditTally &O) {
    Requests += O.Requests;
    VerdictHits += O.VerdictHits;
    ObHits += O.ObHits;
    ObMisses += O.ObMisses;
    return *this;
  }
};

/// Everything one pass measured.
struct PassResult {
  double WallS = 0;
  double CpuS = 0;
  std::vector<double> LatencyS;
  uint64_t Attempted = 0;
  uint64_t Errored = 0;
  uint64_t Wrong = 0;
  std::map<std::string, double> Layers;
  std::vector<std::string> Mismatches;
  std::map<std::string, EditTally> Edits;
};

struct Context {
  Args A;
  Shape S;
  Size Sz = Size::Full;
  std::map<std::string, Answer> Answers;
  Tracer *T = nullptr;

  // Set up per pass.
  Corpus C;
  std::vector<Job> Jobs;
  std::vector<std::vector<Job>> Sessions;
  std::unique_ptr<serve::Server> Server;
  std::vector<std::unique_ptr<serve::ServeClient>> Clients;
};

/// Compares one verdict with its known answer; records a mismatch.
void checkAnswer(const Context &Ctx, const Job &J, const std::string &Key,
                 const Answer &Got, PassResult &P) {
  auto It = Ctx.Answers.find(Key);
  std::string Why;
  if (Got.Exit != J.ExpectedExit)
    Why = "exit " + std::to_string(Got.Exit) + ", expected " +
          std::to_string(J.ExpectedExit);
  else if (It == Ctx.Answers.end())
    Why = "no known answer";
  else if (!(It->second == Got))
    Why = "got " + Got.str() + ", expected " + It->second.str();
  if (Why.empty())
    return;
  ++P.Wrong;
  if (P.Mismatches.size() < 8)
    P.Mismatches.push_back(Key + " [" + J.Edit + "]: " + Why);
}

/// Reading the corpus and generating the stream; for serve-edits also
/// starting the server and connecting the clients.
std::string setUp(Context &Ctx) {
  std::string Error;
  if (!readCorpus(Ctx.A.Root, Ctx.C, Error))
    return Error;
  const std::string &W = Ctx.A.Workload;
  if (W == "paxos-deep")
    Ctx.Jobs = paxosDeepJobs(Ctx.C, Ctx.A.Seed, Ctx.Sz);
  else if (W == "corpus-mix")
    Ctx.Jobs = corpusMixJobs(Ctx.C, Ctx.A.Seed, Ctx.Sz);
  if (W != "serve-edits")
    return "";
  Ctx.Sessions = serveSessions(Ctx.C, Ctx.A.Seed, Ctx.S.Clients, Ctx.Sz);
  serve::ServerOptions O;
  O.Workers = Ctx.S.Workers;
  O.JobThreads = Ctx.S.Threads;
  O.QueueCapacity = 64;
  O.CacheCapacity = 4096; // above any pass's distinct requests: no evictions
  Ctx.Server = std::make_unique<serve::Server>(O);
  if (!Ctx.Server->start(Error))
    return "server start: " + Error;
  Ctx.Clients.clear();
  for (unsigned I = 0; I < Ctx.S.Clients; ++I) {
    auto Client = std::make_unique<serve::ServeClient>();
    if (!Client->connect("127.0.0.1", Ctx.Server->port(), Error))
      return "client connect: " + Error;
    Ctx.Clients.push_back(std::move(Client));
  }
  return "";
}

void tearDown(Context &Ctx) {
  Ctx.Clients.clear();
  if (Ctx.Server)
    Ctx.Server->stop();
  Ctx.Server.reset();
  // Hand freed heap back to the system between passes, so that each
  // pass starts from the same heap and peak RSS measures one pass rather
  // than fragmentation accumulated over several.
  malloc_trim(0);
}

/// The benchmark's own compile of a request, in a "lang.compile" span.
/// Returns its wall time.
double timedCompile(Tracer &T, int Parent, uint64_t Request,
                    const std::string &Source, const std::string &Path,
                    const std::map<std::string, int64_t> &Consts,
                    std::map<std::string, double> &Layers) {
  std::vector<asl::Diagnostic> Diags;
  ScopedSpan Span(T, "lang.compile", Parent, Request);
  uint64_t Start = nowNs();
  std::optional<asl::CompiledModule> Out = asl::frontend::compileSource(
      Source, Path, Consts, asl::frontend::FrontendVersion::V2, Diags);
  double Secs = static_cast<double>(nowNs() - Start) * 1e-9;
  Layers["lang.compiles"] += 1;
  Layers["lang.compile_s"] += Secs;
  if (!Out)
    Layers["lang.diag_requests"] += 1;
  return Secs;
}

/// The exploration time of a request's IS universe alone: the engine time
/// of the same verifyModule call without the cross-check, in an
/// "explore.universe" span.
double timedUniverse(Tracer &T, int Parent, uint64_t Request,
                     driver::VerifyOptions Opts) {
  ScopedSpan Span(T, "explore.universe", Parent, Request);
  Opts.CrossCheck = false;
  return driver::verifyModule(Opts).Engine.TotalSeconds;
}

/// paxos-deep and corpus-mix: cold one-shot verifyModule calls in order.
void inProcessPass(Context &Ctx, bool Traced, int PassSpan, uint64_t PassNo,
                   PassResult &P) {
  Tracer &T = Traced ? *Ctx.T : disabledTracer();
  for (size_t K = 0; K < Ctx.Jobs.size(); ++K) {
    const Job &J = Ctx.Jobs[K];
    uint64_t Request = PassNo * 100000 + K + 1;
    ++P.Attempted;
    ScopedSpan JobSpan(T, "job", PassSpan, Request);
    driver::VerifyOptions Opts = J.options(Ctx.A.Root, Ctx.S.Threads);

    double CompileS = Traced ? timedCompile(T, JobSpan.id(), Request,
                                            Opts.Source, Opts.SourcePath,
                                            Opts.Consts, P.Layers)
                             : 0;

    int VerifySpan = T.begin("verify", JobSpan.id(), Request);
    uint64_t Start = nowNs();
    driver::VerifyResult Result = driver::verifyModule(Opts);
    double VerifyS = static_cast<double>(nowNs() - Start) * 1e-9;
    T.end(VerifySpan);
    P.LatencyS.push_back(VerifyS);

    Report R;
    std::string Error;
    if (!readReport(driver::renderJson(Result), R, Error)) {
      ++P.Errored;
      P.Mismatches.push_back(J.Key + ": unreadable report: " + Error);
      continue;
    }
    checkAnswer(Ctx, J, J.Key, R.A, P);
    if (!Traced)
      continue;

    // Without a cross-check the report's exploration is the universe's.
    double UniverseS = Result.CrossCheck.Ran
                           ? timedUniverse(T, JobSpan.id(), Request, Opts)
                           : R.ExploreS;
    for (const auto &[Name, V] : R.Layers)
      mergeLayer(P.Layers, Name, V);
    P.Layers["driver.other_s"] +=
        attributeVerify(T, VerifySpan, Request, T.startOf(VerifySpan), VerifyS,
                        R, CompileS, UniverseS);
  }
}

/// What a serve-edits edit must do to the caches: resubmissions hit the
/// verdict cache and nothing else does; a comment edit re-checks no
/// obligation, a weight raise re-checks exactly the (CO) obligations, and a
/// peel re-checks some but not all. Returns why \p R breaks that, or "".
std::string cacheExpectation(const Job &J, bool VerdictHit, const Report &R) {
  bool Resubmit = J.Edit == "resubmit";
  if (VerdictHit != Resubmit)
    return VerdictHit ? "unexpected verdict-cache hit"
                      : "resubmission missed the verdict cache";
  if (Resubmit || J.Edit == "base")
    return "";
  auto It = R.Layers.find("obcache.misses");
  uint64_t Misses =
      It == R.Layers.end() ? 0 : static_cast<uint64_t>(It->second);
  uint64_t Total = 0;
  for (uint64_t N : R.A.Obligations)
    Total += N;
  uint64_t Cooperation = R.A.Obligations[NumConditions - 1];
  bool Ok = J.Edit == "comment"  ? Misses == 0
            : J.Edit == "weight" ? Misses == Cooperation
                                 : Misses > 0 && Misses < Total;
  return Ok ? "" : "re-checked " + std::to_string(Misses) + " obligations";
}

/// serve-edits: closed-loop clients, one thread each, replaying their
/// sessions against the in-process server.
void servePass(Context &Ctx, bool Traced, int PassSpan, uint64_t PassNo,
               PassResult &P) {
  Tracer &T = Traced ? *Ctx.T : disabledTracer();
  // One universe exploration per session, before the clients start: every
  // edit preserves the instance's behaviour, so the cost is the same for
  // all of its requests.
  std::vector<double> UniverseS(Ctx.S.Clients, 0);
  for (unsigned Client = 0; Traced && Client < Ctx.S.Clients; ++Client)
    UniverseS[Client] =
        timedUniverse(T, PassSpan, 0,
                      Ctx.Sessions[Client].front().options(Ctx.A.Root,
                                                           Ctx.S.Threads));
  std::mutex Merge;
  auto RunClient = [&](unsigned Client) {
    PassResult Local;
    serve::ServeClient &Conn = *Ctx.Clients[Client];
    const std::vector<Job> &Session = Ctx.Sessions[Client];
    const std::string &Key = Session.front().Key;
    for (size_t K = 0; K < Session.size(); ++K) {
      const Job &J = Session[K];
      uint64_t Request = (PassNo * 100 + Client) * 1000 + K + 1;
      serve::SubmitRequest Req = J.request(Request);
      ++Local.Attempted;
      double CompileS = Traced ? timedCompile(T, PassSpan, Request, Req.Source,
                                              "", Req.Consts, Local.Layers)
                               : 0;
      int SubmitSpan = T.begin("submit", PassSpan, Request);
      uint64_t Start = nowNs();
      serve::ServeReply Reply = Conn.submit(Req);
      for (int Retry = 0;
           Reply.K == serve::ServeReply::Kind::Busy && Retry < 50; ++Retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Reply = Conn.submit(Req);
      }
      uint64_t End = nowNs();
      T.end(SubmitSpan);
      double LatencyS = static_cast<double>(End - Start) * 1e-9;
      if (Reply.K != serve::ServeReply::Kind::Verdict) {
        ++Local.Errored;
        Local.Mismatches.push_back(Key + " [" + J.Edit +
                                   "]: no verdict: " + Reply.Error);
        continue;
      }
      Local.LatencyS.push_back(LatencyS);
      Report R;
      std::string Error;
      if (!readReport(Reply.Verdict.ReportJson, R, Error)) {
        ++Local.Errored;
        Local.Mismatches.push_back(Key + ": unreadable report: " + Error);
        continue;
      }
      checkAnswer(Ctx, J, Key, R.A, Local);
      bool Hit = Reply.Verdict.CacheHit;
      std::string Why = cacheExpectation(J, Hit, R);
      if (!Why.empty()) {
        ++Local.Wrong;
        Local.Mismatches.push_back(Key + " [" + J.Edit + "]: " + Why);
      }
      EditTally &Tally = Local.Edits[J.Edit];
      ++Tally.Requests;
      Tally.VerdictHits += Hit;
      if (!Hit) {
        Tally.ObHits += static_cast<uint64_t>(R.Layers["obcache.hits"]);
        Tally.ObMisses += static_cast<uint64_t>(R.Layers["obcache.misses"]);
      }
      if (!Traced)
        continue;
      if (Hit) {
        Local.Layers["serve.hits"] += 1;
        Local.Layers["serve.hit_rtt_s"] += LatencyS;
        continue;
      }
      Local.Layers["serve.misses"] += 1;
      Local.Layers["serve.overhead_s"] += LatencyS - R.TotalS;
      for (const auto &[Name, V] : R.Layers) {
        mergeLayer(Local.Layers, Name, V);
        if (Name.rfind("obcache.", 0) == 0)
          Local.Layers["edit." + J.Edit + "." + Name] += V;
      }
      // The server's verifyModule ran inside this submit; its extent is
      // the report's own total_seconds, ending when the reply arrived.
      uint64_t VerifyStart =
          End - static_cast<uint64_t>(std::min(R.TotalS, LatencyS) * 1e9);
      int Verify = T.derived("verify", SubmitSpan, Request, VerifyStart,
                             R.TotalS);
      Local.Layers["driver.other_s"] += attributeVerify(
          T, Verify, Request, VerifyStart, R.TotalS, R, CompileS,
          R.CrossS > 0 ? UniverseS[Client] : R.ExploreS);
    }
    std::lock_guard<std::mutex> Lock(Merge);
    P.Attempted += Local.Attempted;
    P.Errored += Local.Errored;
    P.Wrong += Local.Wrong;
    P.LatencyS.insert(P.LatencyS.end(), Local.LatencyS.begin(),
                      Local.LatencyS.end());
    P.Mismatches.insert(P.Mismatches.end(), Local.Mismatches.begin(),
                        Local.Mismatches.end());
    for (const auto &[Name, V] : Local.Layers)
      mergeLayer(P.Layers, Name, V);
    for (const auto &[Edit, Tally] : Local.Edits)
      P.Edits[Edit] += Tally;
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Ctx.S.Clients; ++I)
    Threads.emplace_back(RunClient, I);
  for (std::thread &Th : Threads)
    Th.join();

  if (!Traced)
    return;
  serve::ServeStats St = Ctx.Server->stats();
  double Lookups = static_cast<double>(St.CacheHits + St.CacheMisses);
  P.Layers["serve.verdict_cache_hit_ratio"] =
      Lookups ? static_cast<double>(St.CacheHits) / Lookups : 0;
  P.Layers["serve.coalesced"] = static_cast<double>(St.JobsCoalesced);
  P.Layers["serve.busy_rejects"] = static_cast<double>(St.JobsRejected);
  P.Layers["serve.frames_rejected"] = static_cast<double>(St.FramesRejected);
  P.Layers["serve.job_s"] = St.TotalJobSeconds;
  P.Layers["serve.max_job_s"] = St.MaxJobSeconds;
}

PassResult runPass(Context &Ctx, bool Traced, uint64_t PassNo) {
  PassResult P;
  Tracer &T = Traced ? *Ctx.T : disabledTracer();
  int PassSpan = T.begin("pass", -1, 0);
  double Cpu = cpuSeconds();
  uint64_t Start = nowNs();
  if (Ctx.A.Workload == "serve-edits")
    servePass(Ctx, Traced, PassSpan, PassNo, P);
  else
    inProcessPass(Ctx, Traced, PassSpan, PassNo, P);
  P.WallS = static_cast<double>(nowNs() - Start) * 1e-9;
  P.CpuS = cpuSeconds() - Cpu;
  T.end(PassSpan);
  return P;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  std::string Unit;
};

const std::vector<Metric> EndToEnd = {
    {"setup_s", "s"},           {"time_to_verdict_s", "s"},
    {"verdicts_per_s", "1/s"},  {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},   {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

std::vector<Metric> makePerLayer() {
  std::vector<Metric> M = {
      {"lang.compile_ms", "ms"},
      {"lang.diag_requests", "count"},
      {"explore.s", "s"},
      {"explore.expand_s", "s"},
      {"explore.merge_s", "s"},
      {"explore.hashcons_hit_ratio", "ratio"},
      {"explore.hashcons_lookups", "count"},
      {"explore.transcache_hit_ratio", "ratio"},
      {"explore.transcache_lookups", "count"},
      {"explore.canon_hit_ratio", "ratio"},
      {"explore.canon_lookups", "count"},
      {"explore.frontier_peak", "count"},
      {"explore.interned_configs", "count"},
      {"explore.interned_stores", "count"},
      {"explore.interned_pa_sets", "count"},
      {"explore.configs", "count"},
      {"explore.transitions", "count"},
      {"check.wall_s", "s"},
      {"check.cpu_s", "s"},
      {"check.parallel_eff", "ratio"},
  };
  for (size_t I = 0; I < NumConditions; ++I) {
    std::string Family = std::string("check.") + ConditionNames[I];
    // Side conditions run outside the scheduler, so the product reports
    // no job time for them.
    if (I != 0)
      M.push_back({Family + ".job_s", "s"});
    M.push_back({Family + ".obligations", "count"});
  }
  std::vector<Metric> Rest = {
      {"check.units", "count"},
      {"check.useful_unit_ratio", "ratio"},
      {"check.failures", "count"},
      {"obcache.hits", "count"},
      {"obcache.misses", "count"},
      {"obcache.hit_ratio", "ratio"},
      {"edit.comment.obcache_hit_ratio", "ratio"},
      {"edit.weight.obcache_hit_ratio", "ratio"},
      {"edit.peel.obcache_hit_ratio", "ratio"},
      {"crosscheck.s", "s"},
      {"crosscheck.configs_p", "count"},
      {"crosscheck.configs_pprime", "count"},
      {"driver.other_s", "s"},
      {"serve.hit_rtt_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.verdict_cache_hit_ratio", "ratio"},
      {"serve.coalesced", "count"},
      {"serve.busy_rejects", "count"},
      {"serve.frames_rejected", "count"},
      {"serve.job_s", "s"},
      {"serve.max_job_s", "s"},
      {"trace.overhead_s", "s"},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

const std::vector<Metric> PerLayer = makePerLayer();

/// Turns one traced pass's raw sums into the per-layer metric values.
std::map<std::string, double> layerValues(std::map<std::string, double> L) {
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  L["lang.compile_ms"] = Ratio(L["lang.compile_s"], L["lang.compiles"]) * 1e3;
  L["explore.hashcons_hit_ratio"] =
      Ratio(L["explore.hashcons_hits"], L["explore.hashcons_lookups"]);
  L["explore.transcache_hit_ratio"] =
      Ratio(L["explore.transcache_hits"], L["explore.transcache_lookups"]);
  L["explore.canon_hit_ratio"] =
      Ratio(L["explore.canon_hits"], L["explore.canon_lookups"]);
  L["check.parallel_eff"] = Ratio(L["check.cpu_s"], L["check.thread_wall_s"]);
  L["check.useful_unit_ratio"] =
      Ratio(L["check.units"] - L["check.units_deduped"], L["check.units"]);
  L["obcache.hit_ratio"] =
      Ratio(L["obcache.hits"], L["obcache.hits"] + L["obcache.misses"]);
  for (const char *Edit : {"comment", "weight", "peel"}) {
    std::string Stem = std::string("edit.") + Edit + ".obcache.";
    L[std::string("edit.") + Edit + ".obcache_hit_ratio"] =
        Ratio(L[Stem + "hits"], L[Stem + "hits"] + L[Stem + "misses"]);
  }
  L["serve.hit_rtt_ms"] = Ratio(L["serve.hit_rtt_s"], L["serve.hits"]) * 1e3;
  L["serve.overhead_ms"] =
      Ratio(L["serve.overhead_s"], L["serve.misses"]) * 1e3;
  return L;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

int runMode(Context &Ctx) {
  const Args &A = Ctx.A;
  Tracer Tr(A.Trace);
  Ctx.T = &Tr;
  std::string LoadAvg = loadAverage();
  unsigned Cpus = nproc();
  if (demand(Ctx.S) > Cpus) {
    std::cerr << "verdictbench: " << A.Workload << " needs "
              << demand(Ctx.S) << " threads and connections but nproc is "
              << Cpus << "; refusing to run\n";
    return 2;
  }

  // Set-up is timed several times and reported as a median; the extra
  // set-ups are torn down without running a pass.
  std::vector<double> SetupS;
  auto TimedSetUp = [&]() -> bool {
    uint64_t Start = nowNs();
    std::string Error = setUp(Ctx);
    SetupS.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
    if (!Error.empty()) {
      std::cerr << "verdictbench: set-up failed: " << Error << "\n";
      return false;
    }
    return true;
  };
  constexpr int ExtraSetups = 24;
  for (int I = 0; I < ExtraSetups; ++I) {
    if (!TimedSetUp())
      return 2;
    tearDown(Ctx);
  }

  std::vector<PassResult> Untraced, Traced;
  uint64_t Begin = nowNs();
  for (uint64_t PassNo = 1;; ++PassNo) {
    // Traced runs alternate untraced and traced passes, untraced first.
    bool TracePass = A.Trace && Untraced.size() > Traced.size();
    // Once both kinds have a pass, no pass starts that is expected (from
    // the last pass of its kind) to end after --seconds, so that long
    // passes (paxos-deep) do not stretch a run past its length.
    const std::vector<PassResult> &Same = TracePass ? Traced : Untraced;
    double Expected = Same.empty() ? 0 : Same.back().WallS;
    double Elapsed = static_cast<double>(nowNs() - Begin) * 1e-9;
    bool Enough = Elapsed + Expected >= A.Seconds && !Untraced.empty() &&
                  (!A.Trace || !Traced.empty());
    if (Enough)
      break;
    if (!TimedSetUp())
      return 2;
    PassResult P = runPass(Ctx, TracePass, PassNo);
    tearDown(Ctx);
    (TracePass ? Traced : Untraced).push_back(std::move(P));
  }

  // Correctness over every pass of the run.
  uint64_t Attempted = 0, Errored = 0, Wrong = 0;
  std::vector<std::string> Mismatches;
  std::map<std::string, EditTally> Edits;
  for (const std::vector<PassResult> *Set : {&Untraced, &Traced})
    for (const PassResult &P : *Set) {
      Attempted += P.Attempted;
      Errored += P.Errored;
      Wrong += P.Wrong;
      for (const auto &[Edit, Tally] : P.Edits)
        Edits[Edit] += Tally;
      for (const std::string &M : P.Mismatches)
        if (Mismatches.size() < 8)
          Mismatches.push_back(M);
    }
  uint64_t Failed = Errored + Wrong;

  // End-to-end metrics come from untraced passes only.
  std::vector<double> Latencies, PassWall;
  double Wall = 0, Cpu = 0;
  size_t Verdicts = 0;
  for (const PassResult &P : Untraced) {
    Latencies.insert(Latencies.end(), P.LatencyS.begin(), P.LatencyS.end());
    PassWall.push_back(P.WallS);
    Wall += P.WallS;
    Cpu += P.CpuS;
    Verdicts += P.LatencyS.size();
  }
  std::map<std::string, double> E2E = {
      {"setup_s", median(SetupS)},
      {"time_to_verdict_s", median(PassWall)},
      {"verdicts_per_s", Wall > 0 ? static_cast<double>(Verdicts) / Wall : 0},
      {"latency_p50_ms", percentile(Latencies, 0.50) * 1e3},
      {"latency_p95_ms", percentile(Latencies, 0.95) * 1e3},
      {"cpu_s", Verdicts ? Cpu / static_cast<double>(Verdicts) : 0},
      {"peak_rss_mb", peakRssMb()},
  };

  // Per-layer metrics: the median over traced passes of each value.
  std::map<std::string, double> Layers;
  std::map<std::string, double> SelfS;
  if (A.Trace) {
    std::map<std::string, std::vector<double>> Series;
    for (const PassResult &P : Traced)
      for (const auto &[Name, V] : layerValues(P.Layers))
        Series[Name].push_back(V);
    for (const Metric &M : PerLayer)
      Layers[M.Name] = median(Series[M.Name]);
    std::vector<double> TracedWall;
    for (const PassResult &P : Traced)
      TracedWall.push_back(P.WallS);
    Layers["trace.overhead_s"] = median(TracedWall) - median(PassWall);
    SelfS = Tr.selfSeconds();
  }

  // Human-readable report, then the result line.
  auto Line = [](const std::string &Text) { std::cout << "# " << Text << "\n"; };
  Line("verdictbench " + A.Workload + " seed=" + std::to_string(A.Seed) +
       " seconds=" + fmt(A.Seconds) + " trace=" + (A.Trace ? "1" : "0") +
       (A.Smoke ? " smoke" : ""));
  std::string Sha = A.GitSha.empty() ? gitSha() : A.GitSha;
  Line("provenance: git_sha=" + Sha + " build_type=" + buildType() +
       " nproc=" + std::to_string(Cpus) + " loadavg_1m_at_start=" + LoadAvg +
       " engine_threads=" + std::to_string(Ctx.S.Threads) +
       " workers=" + std::to_string(Ctx.S.Workers) +
       " clients=" + std::to_string(Ctx.S.Clients));
  size_t Beyond95 = static_cast<size_t>(std::count_if(
      Latencies.begin(), Latencies.end(), [&](double L) {
        return L * 1e3 > E2E["latency_p95_ms"];
      }));
  Line("passes: untraced=" + std::to_string(Untraced.size()) +
       " traced=" + std::to_string(Traced.size()) +
       " setups=" + std::to_string(SetupS.size()) +
       " latency_samples=" + std::to_string(Latencies.size()) +
       " beyond_p95=" + std::to_string(Beyond95));
  std::string Walls;
  for (double W : PassWall)
    Walls += " " + fmt(W);
  Line("untraced pass walls (s):" + Walls);
  double FailedRatio =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 0;
  Line("wrong_verdicts=" + std::to_string(Wrong) +
       " failed_ratio=" + fmt(FailedRatio) + " attempted=" +
       std::to_string(Attempted) + " errored=" + std::to_string(Errored));
  for (const std::string &M : Mismatches)
    Line("MISMATCH " + M);
  // serve-edits: the measured cache outcome of each request kind.
  auto Share = [](uint64_t Part, uint64_t Whole) {
    return fmt(Whole ? static_cast<double>(Part) / static_cast<double>(Whole)
                     : 0);
  };
  for (const auto &[Edit, Tally] : Edits)
    Line("edit " + Edit + ": requests=" + std::to_string(Tally.Requests) +
         " verdict_cache_hit_share=" +
         Share(Tally.VerdictHits, Tally.Requests) +
         " obcache_hit_share=" +
         Share(Tally.ObHits, Tally.ObHits + Tally.ObMisses) +
         " obcache_misses=" + std::to_string(Tally.ObMisses));
  for (const Metric &M : EndToEnd)
    Line(M.Name + " = " + fmt(E2E[M.Name]) + " " + M.Unit);
  if (A.Trace) {
    for (const Metric &M : PerLayer)
      Line(M.Name + " = " + fmt(Layers[M.Name]) + " " + M.Unit);
    Line("self time by span (all traced passes):");
    for (const auto &[Name, S] : SelfS)
      Line("  " + Name + " " + fmt(S) + " s");
  }

  std::string Stem = A.Workload + "-seed" + std::to_string(A.Seed) +
                     (A.Trace ? "-traced" : "");
  if (A.Trace && !A.OutDir.empty()) {
    std::string Path = A.OutDir + "/" + Stem + ".trace.json";
    if (Tr.writeChrome(Path))
      Line("trace: " + Path);
  }

  // Written by hand: values keep all their digits (%.17g), where
  // JsonWriter rounds doubles to six decimals.
  std::string Result = "{\"correct\": " +
                       std::string(Failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Attempted) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const Metric &M, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    Result += std::string(First ? "" : ", ") + "\"" + M.Name +
              "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  };
  if (A.Trace)
    for (const Metric &M : PerLayer)
      Emit(M, Layers[M.Name]);
  else
    for (const Metric &M : EndToEnd)
      Emit(M, E2E[M.Name]);
  Result += "}}";

  if (!A.OutDir.empty()) {
    // The full record: provenance, both metric sets and self times.
    json::JsonWriter R;
    R.beginObject();
    R.key("workload").value(A.Workload);
    R.key("seed").value(A.Seed);
    R.key("git_sha").value(Sha);
    R.key("build_type").value(buildType());
    R.key("nproc").value(Cpus);
    R.key("loadavg_1m_at_start").value(LoadAvg);
    R.key("engine_threads").value(Ctx.S.Threads);
    R.key("workers").value(Ctx.S.Workers);
    R.key("clients").value(Ctx.S.Clients);
    R.key("latency_samples").value(static_cast<uint64_t>(Latencies.size()));
    R.key("wrong_verdicts").value(Wrong);
    R.key("failed_ratio").value(FailedRatio);
    R.key("end_to_end").beginObject();
    for (const auto &[Name, V] : E2E)
      R.key(Name).value(V);
    R.endObject();
    R.key("per_layer").beginObject();
    for (const auto &[Name, V] : Layers)
      R.key(Name).value(V);
    R.endObject();
    R.key("edits").beginObject();
    for (const auto &[Edit, Tally] : Edits) {
      R.key(Edit).beginObject();
      R.key("requests").value(Tally.Requests);
      R.key("verdict_cache_hits").value(Tally.VerdictHits);
      R.key("obcache_hits").value(Tally.ObHits);
      R.key("obcache_misses").value(Tally.ObMisses);
      R.endObject();
    }
    R.endObject();
    R.key("self_seconds").beginObject();
    for (const auto &[Name, V] : SelfS)
      R.key(Name).value(V);
    R.endObject();
    R.endObject();
    std::ofstream(A.OutDir + "/" + Stem + ".result.json") << R.take() << "\n";
  }

  std::cout << Result << std::endl;
  return Failed == 0 ? 0 : 1;
}

int streamMode(Context &Ctx) {
  std::string Error;
  if (!readCorpus(Ctx.A.Root, Ctx.C, Error)) {
    std::cerr << "verdictbench: " << Error << "\n";
    return 2;
  }
  if (Ctx.A.Workload == "serve-edits") {
    auto Sessions = serveSessions(Ctx.C, Ctx.A.Seed, Ctx.S.Clients, Ctx.Sz);
    for (size_t C = 0; C < Sessions.size(); ++C)
      for (const Job &J : Sessions[C])
        std::cout << "client " << C << " | " << J.str() << "\n";
    return 0;
  }
  auto Jobs = Ctx.A.Workload == "paxos-deep"
                  ? paxosDeepJobs(Ctx.C, Ctx.A.Seed, Ctx.Sz)
                  : corpusMixJobs(Ctx.C, Ctx.A.Seed, Ctx.Sz);
  for (const Job &J : Jobs)
    std::cout << J.str() << "\n";
  return 0;
}

/// Pins the known answers from the product as built, after checking that
/// every job's exit code is the one its kind fixes and that every
/// serve-edits step reproduces its base instance's answer.
int pinMode(Context &Ctx) {
  std::string Error;
  if (!readCorpus(Ctx.A.Root, Ctx.C, Error)) {
    std::cerr << "verdictbench: " << Error << "\n";
    return 2;
  }
  int Status = 0;
  std::map<std::string, Answer> Answers;
  auto Verify = [&](const Job &J, unsigned Threads) {
    Report R;
    std::string Err;
    if (!readReport(driver::renderJson(driver::verifyModule(
                        J.options(Ctx.A.Root, Threads))),
                    R, Err)) {
      std::cerr << J.Key << ": unreadable report: " << Err << "\n";
      Status = 1;
    }
    if (R.A.Exit != J.ExpectedExit) {
      std::cerr << J.Key << ": exit " << R.A.Exit << ", expected "
                << J.ExpectedExit << "\n";
      Status = 1;
    }
    return R.A;
  };
  for (const Job &J : answerCatalogue(Ctx.C)) {
    // Counts are identical for every thread count (the product's
    // determinism contract), so one thread pins them all.
    Answers[J.Key] = Verify(J, 1);
    std::cerr << "pinned " << J.Key << "\n";
  }
  for (uint64_t Seed : {1, 2})
    for (const auto &Session : serveSessions(Ctx.C, Seed, 2, Size::Full))
      for (const Job &J : Session)
        if (J.Edit != "resubmit" && !(Verify(J, 1) == Answers[J.Key])) {
          std::cerr << J.Key << " [" << J.Edit << "]: edit changed the answer\n";
          Status = 1;
        }
  if (!writeAnswers(Ctx.A.Answers, Answers)) {
    std::cerr << "verdictbench: cannot write " << Ctx.A.Answers << "\n";
    return 2;
  }
  return Status;
}

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Error) {
  int I = 1;
  if (Argc > 1 && Argv[1][0] != '-')
    A.Mode = Argv[I++];
  for (; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc) {
      Error = "missing value for " + Flag;
      return false;
    }
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload")
        A.Workload = Value;
      else if (Flag == "--seed")
        A.Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(Value);
      else if (Flag == "--trace")
        A.Trace = std::stoi(Value) != 0;
      else if (Flag == "--root")
        A.Root = Value;
      else if (Flag == "--answers")
        A.Answers = Value;
      else if (Flag == "--out-dir")
        A.OutDir = Value;
      else if (Flag == "--git-sha")
        A.GitSha = Value;
      else {
        Error = "unknown flag " + Flag;
        return false;
      }
    } catch (const std::exception &) {
      Error = "bad value for " + Flag + ": " + Value;
      return false;
    }
  }
  if (A.Answers.empty())
    A.Answers = A.Root + "/verdictbench/known_answers.txt";
  if (A.Mode != "run" && A.Mode != "stream" && A.Mode != "pin") {
    Error = "unknown mode " + A.Mode;
    return false;
  }
  if (A.Mode == "run" && A.Seconds <= 0) {
    Error = "--seconds is required and must be positive";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Context Ctx;
  std::string Error;
  if (!parseArgs(Argc, Argv, Ctx.A, Error)) {
    std::cerr << "verdictbench: " << Error << "\n";
    return 2;
  }
  Ctx.Sz = Ctx.A.Smoke ? Size::Smoke : Size::Full;
  try {
    if (Ctx.A.Mode == "pin")
      return pinMode(Ctx);
    if (!workloadShape(Ctx.A.Workload, Ctx.S)) {
      std::cerr << "verdictbench: unknown workload '" << Ctx.A.Workload
                << "' (paxos-deep, corpus-mix, serve-edits)\n";
      return 2;
    }
    if (Ctx.A.Mode == "stream")
      return streamMode(Ctx);
    if (!readAnswers(Ctx.A.Answers, Ctx.Answers, Error)) {
      std::cerr << "verdictbench: " << Error << "\n";
      return 2;
    }
    return runMode(Ctx);
  } catch (const std::exception &E) {
    std::cerr << "verdictbench: " << E.what() << "\n";
    return 2;
  }
}
