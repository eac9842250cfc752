//===- engine/ObligationScheduler.cpp - Parallel obligation checking ----------===//

#include "engine/ObligationScheduler.h"

#include "engine/ObligationCache.h"
#include "refine/Refinement.h"
#include "support/Format.h"
#include "support/Hashing.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

static_assert(ObUnit::MaxIssues == CheckResult::MaxIssues,
              "unit diagnostic cap must match CheckResult's");

const char *engine::obConditionName(ObCondition C) {
  switch (C) {
  case ObCondition::SideConditions:
    return "side_conditions";
  case ObCondition::AbstractionRefinement:
    return "abstraction_refinement";
  case ObCondition::BaseCase:
    return "base_case";
  case ObCondition::Conclusion:
    return "conclusion";
  case ObCondition::InductiveStep:
    return "inductive_step";
  case ObCondition::LeftMovers:
    return "left_movers";
  case ObCondition::Cooperation:
    return "cooperation";
  case ObCondition::CrossCheck:
    return "cross_check";
  }
  return "<invalid>";
}

const char *engine::obConditionLabel(ObCondition C) {
  switch (C) {
  case ObCondition::SideConditions:
    return "side conditions";
  case ObCondition::AbstractionRefinement:
    return "P(A) ≼ α(A)";
  case ObCondition::BaseCase:
    return "(I1) base case";
  case ObCondition::Conclusion:
    return "(I2) conclusion";
  case ObCondition::InductiveStep:
    return "(I3) induction";
  case ObCondition::LeftMovers:
    return "(LM) left mover";
  case ObCondition::Cooperation:
    return "(CO) cooperation";
  case ObCondition::CrossCheck:
    return "P ≼ P' (empirical)";
  }
  return "<invalid>";
}

ObligationStats::Bucket ObligationStats::totals() const {
  Bucket T;
  for (const Bucket &B : PerCondition) {
    T.Jobs += B.Jobs;
    T.Units += B.Units;
    T.UnitsDeduped += B.UnitsDeduped;
    T.Obligations += B.Obligations;
    T.Failures += B.Failures;
    T.OrbitConfigs += B.OrbitConfigs;
    T.OrbitStates += B.OrbitStates;
    T.JobSeconds += B.JobSeconds;
  }
  return T;
}

void ObligationStats::accumulate(const ObligationStats &Other) {
  for (size_t I = 0; I < NumObConditions; ++I) {
    PerCondition[I].Jobs += Other.PerCondition[I].Jobs;
    PerCondition[I].Units += Other.PerCondition[I].Units;
    PerCondition[I].UnitsDeduped += Other.PerCondition[I].UnitsDeduped;
    PerCondition[I].Obligations += Other.PerCondition[I].Obligations;
    PerCondition[I].Failures += Other.PerCondition[I].Failures;
    PerCondition[I].OrbitConfigs += Other.PerCondition[I].OrbitConfigs;
    PerCondition[I].OrbitStates += Other.PerCondition[I].OrbitStates;
    PerCondition[I].JobSeconds += Other.PerCondition[I].JobSeconds;
  }
  Cache.Hits += Other.Cache.Hits;
  Cache.Misses += Other.Cache.Misses;
  Cache.DiskHits += Other.Cache.DiskHits;
  Cache.Enabled = Cache.Enabled || Other.Cache.Enabled;
  WallSeconds += Other.WallSeconds;
  Threads = std::max(Threads, Other.Threads);
}

std::string ObligationStats::str() const {
  Bucket T = totals();
  std::string Out;
  Out += "obligations=" + std::to_string(T.Obligations);
  Out += " failures=" + std::to_string(T.Failures);
  Out += " jobs=" + std::to_string(T.Jobs);
  Out += " dedup-discarded=" + std::to_string(T.UnitsDeduped);
  if (T.OrbitStates > T.OrbitConfigs) {
    Out += " orbit-configs=" + std::to_string(T.OrbitConfigs);
    Out += " orbit-states=" + std::to_string(T.OrbitStates);
  }
  if (Cache.Enabled) {
    Out += " cache-hits=" + std::to_string(Cache.Hits);
    Out += " cache-misses=" + std::to_string(Cache.Misses);
    if (Cache.DiskHits)
      Out += " disk-hits=" + std::to_string(Cache.DiskHits);
  }
  Out += " threads=" + std::to_string(Threads);
  Out += " cpu=" + formatSeconds(T.JobSeconds) + "s";
  Out += " wall=" + formatSeconds(WallSeconds) + "s";
  return Out;
}

namespace {

struct ObKeyHash {
  size_t operator()(const ObKey &K) const {
    size_t Seed = K.Tag;
    hashCombine(Seed, K.A);
    hashCombine(Seed, K.B);
    hashCombine(Seed, K.C);
    return Seed;
  }
};

} // namespace

/// An ordered group of jobs sharing one dedup namespace. Channel I folds
/// under Conditions[I].
class ObligationScheduler::Group {
public:
  explicit Group(std::vector<ObCondition> Conditions)
      : Conditions(std::move(Conditions)) {
    Results.resize(this->Conditions.size());
  }

  std::vector<ObCondition> Conditions;
  /// Global index of the group's last submitted job; folding it frees
  /// Consumed.
  size_t LastJob = 0;
  std::vector<CheckResult> Results;
  /// Keys consumed by the jobs folded so far.
  std::unordered_set<ObKey, ObKeyHash> Consumed;
};

struct ObligationScheduler::JobSlot {
  std::function<void(ObSink &)> Fn;
  /// Content fingerprint of the job's inputs; evaluated on the worker
  /// when a cache is attached. Null for uncacheable jobs.
  std::function<Fingerprint()> KeyFn;
  Group *G;
  ObSink Sink;
  double Seconds = 0;
  bool CacheHit = false;
  bool FromDisk = false;
};

ObligationScheduler::ObligationScheduler(const EngineConfig &Config)
    : Threads(Config.NumThreads ? Config.NumThreads : 1) {
  Stats.Threads = Threads;
}

ObligationScheduler::~ObligationScheduler() = default;

ObligationScheduler::Group *
ObligationScheduler::group(std::vector<ObCondition> Conditions) {
  assert(!Ran && "cannot create groups after run()");
  assert(!Conditions.empty() && "a group needs at least one channel");
  Groups.emplace_back(std::move(Conditions));
  return &Groups.back();
}

void ObligationScheduler::add(Group *G,
                              std::function<void(ObSink &)> Job) {
  add(G, nullptr, std::move(Job));
}

void ObligationScheduler::add(Group *G, std::function<Fingerprint()> KeyFn,
                              std::function<void(ObSink &)> Job) {
  assert(!Ran && "cannot submit jobs after run()");
  G->LastJob = Jobs.size();
  Jobs.push_back(
      JobSlot{std::move(Job), std::move(KeyFn), G, ObSink(), 0, false, false});
}

void ObligationScheduler::run() {
  assert(!Ran && "run() may be called once");
  Ran = true;
  Timer Wall;
  Stats.Cache.Enabled = Cache != nullptr;

  size_t NumJobs = Jobs.size();
  unsigned Workers =
      static_cast<unsigned>(std::min<size_t>(Threads, NumJobs));
  // One job, cache-aware: probe before running, record after. Both the
  // fingerprinting (KeyFn) and the blob encode/decode happen here on the
  // worker, so cache overhead parallelizes with the checking itself.
  auto RunOne = [this](JobSlot &J) {
    Timer T;
    if (Cache && J.KeyFn) {
      Fingerprint Key = J.KeyFn();
      bool FromDisk = false;
      if (Cache->lookup(Key, J.Sink.Units, FromDisk)) {
        // Replay: the recorded units flow through the fold exactly as
        // freshly emitted ones would — bit-identical results.
        J.CacheHit = true;
        J.FromDisk = FromDisk;
        J.Seconds = T.elapsed();
        return;
      }
      J.Fn(J.Sink);
      Cache->insert(Key, J.Sink.Units);
      J.Seconds = T.elapsed();
      return;
    }
    J.Fn(J.Sink);
    J.Seconds = T.elapsed();
  };
  // Workers claim jobs in index order. A finished job is folded as soon
  // as every earlier job has been; one worker at a time drains that
  // prefix (outside the mutex) while the others keep checking, so only
  // the jobs that finished ahead of an unfinished one hold their units.
  // With one worker, every job is folded right after it ran.
  std::atomic<size_t> Next{0};
  std::mutex M; // guards everything below
  std::vector<char> Done(NumJobs, 0);
  size_t NextFold = 0;
  bool Folding = false;
  std::exception_ptr Error;
  auto Finish = [&](size_t I) {
    std::unique_lock<std::mutex> Lock(M);
    Done[I] = 1;
    if (Folding)
      return; // the active folder re-checks Done before it stops
    Folding = true;
    while (NextFold < NumJobs && Done[NextFold]) {
      size_t J = NextFold++;
      Lock.unlock();
      fold(J);
      Lock.lock();
    }
    Folding = false;
  };
  auto Work = [&]() {
    try {
      for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
           I < NumJobs; I = Next.fetch_add(1, std::memory_order_relaxed)) {
        RunOne(Jobs[I]);
        Finish(I);
      }
    } catch (...) {
      // Stop handing out jobs; the fold stalls at the failed job, which
      // is harmless since the run rethrows.
      Next.store(NumJobs, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(M);
      if (!Error)
        Error = std::current_exception();
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I + 1 < Workers; ++I)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  if (Error)
    std::rethrow_exception(Error);
  assert(NextFold == NumJobs && "every job folded");
  Stats.WallSeconds = Wall.elapsed();
}

void ObligationScheduler::fold(size_t JobIdx) {
  // Folding jobs in submission order, and each job's units in emission
  // order, against the group-wide dedup set keeps exactly the serial
  // loop's surviving unit per key. See the header's determinism argument.
  JobSlot &J = Jobs[JobIdx];
  Group &G = *J.G;
  ObligationStats::Bucket &JobBucket =
      Stats.PerCondition[static_cast<size_t>(G.Conditions[0])];
  ++JobBucket.Jobs;
  JobBucket.JobSeconds += J.Seconds;
  if (Cache && J.KeyFn) {
    // Obligation-weighted cache accounting, before dedup.
    uint64_t Obs = 0;
    for (const ObUnit &U : J.Sink.Units)
      Obs += U.Obligations;
    if (J.CacheHit) {
      Stats.Cache.Hits += Obs;
      if (J.FromDisk)
        Stats.Cache.DiskHits += Obs;
    } else {
      Stats.Cache.Misses += Obs;
    }
  }
  for (ObUnit &U : J.Sink.Units) {
    assert(U.Channel < G.Results.size() && "unit channel out of range");
    ObligationStats::Bucket &B =
        Stats.PerCondition[static_cast<size_t>(G.Conditions[U.Channel])];
    ++B.Units;
    if (!U.Key.keyless() && !G.Consumed.insert(U.Key).second) {
      ++B.UnitsDeduped;
      continue;
    }
    CheckResult &R = G.Results[U.Channel];
    R.addObligations(U.Obligations);
    uint32_t Reported = 0;
    for (std::string &Issue : U.Issues) {
      R.fail(std::move(Issue));
      ++Reported;
    }
    // Failures beyond the retained diagnostics still count.
    for (uint32_t I = Reported; I < U.Failures; ++I)
      R.fail(std::string());
    B.Obligations += U.Obligations;
    B.Failures += U.Failures;
  }
  std::vector<ObUnit>().swap(J.Sink.Units);
  if (JobIdx == G.LastJob)
    decltype(G.Consumed)().swap(G.Consumed);
}

void ObligationScheduler::noteOrbits(ObCondition Condition, uint64_t Reps,
                                     uint64_t States) {
  ObligationStats::Bucket &B =
      Stats.PerCondition[static_cast<size_t>(Condition)];
  B.OrbitConfigs += Reps;
  B.OrbitStates += States;
}

const CheckResult &ObligationScheduler::result(const Group *G,
                                               uint8_t Channel) const {
  assert(Ran && "result() requires run()");
  assert(Channel < G->Results.size() && "channel out of range");
  return G->Results[Channel];
}
