//===- engine/ObligationScheduler.h - Parallel obligation checking -*- C++ -*-===//
///
/// \file
/// The obligation scheduler: the parallel execution substrate for every
/// checker pass (IS conditions, mover checks, refinement, cooperation).
/// Checker passes enumerate their work as *jobs* — closures tagged with a
/// condition that emit ordered *obligation units* into a sink — and the
/// scheduler runs the jobs on a worker pool sharing the driver's thread
/// budget, folding the units back together in canonical submission order
/// as the jobs finish. Verdicts, obligation counts and counterexample
/// diagnostics are bit-identical for any thread count (the same
/// determinism contract as the frontier merge in engine/StateGraph.h).
///
/// Determinism under deduplication. The serial checker loops deduplicate
/// obligations whose outcome only depends on a store point (e.g. the
/// commutation checks of the mover engine) by consuming a key at the
/// first *gate-passing* occurrence in universe order. Whether a key is
/// consumed at an occurrence can depend on that occurrence's Ω, so the
/// consuming occurrence cannot be precomputed without evaluating gates —
/// the very work we want to parallelize. The scheduler instead runs
/// *speculative dedup with an ordered fold*: each job processes a
/// contiguous slice of the universe with a job-local dedup set, emitting
/// one unit per consumed key; the fold then replays all units in (job
/// submission, within-job emission) order against a group-wide dedup set
/// and discards units whose key was already consumed. Because job slices
/// are contiguous and ordered, the surviving unit for every key is
/// exactly the one the serial loop would have produced — at the cost of
/// some duplicated (discarded) work when a key spans slices.
///
/// Memory. The fold streams: a finished job is folded, and its units
/// freed, as soon as every earlier-submitted job has been folded, and a
/// group's dedup set is freed with its last job. Workers claim jobs in
/// submission order, so only the jobs that finished ahead of a slower
/// earlier one (about one per worker) hold units at any time.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_OBLIGATIONSCHEDULER_H
#define ISQ_ENGINE_OBLIGATIONSCHEDULER_H

#include "engine/EngineConfig.h"
#include "semantics/Fingerprint.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace isq {

class CheckResult; // refine/Refinement.h

namespace engine {

class ObligationCache;

/// The verification condition an obligation belongs to. Mirrors the
/// per-condition decomposition of ISCheckReport plus the program-level
/// cross-check; used to attribute counts and wall time per condition.
enum class ObCondition : uint8_t {
  SideConditions,
  AbstractionRefinement,
  BaseCase,      ///< (I1)
  Conclusion,    ///< (I2)
  InductiveStep, ///< (I3)
  LeftMovers,    ///< (LM)
  Cooperation,   ///< (CO)
  CrossCheck,    ///< empirical P ≼ P'
};
constexpr size_t NumObConditions = 8;

/// Stable machine name ("side_conditions", "base_case", ...).
const char *obConditionName(ObCondition C);
/// Human-readable report label ("side conditions", "(I1) base case", ...).
const char *obConditionLabel(ObCondition C);

/// Dedup key of an obligation unit: a small tag naming the dedup namespace
/// within the group (e.g. forward-preservation vs commutation) plus up to
/// three 64-bit *content* fingerprints identifying the store point.
/// Content — not interned handles — because units recorded by the
/// obligation cache in one run are replayed through the fold in
/// another: a cached unit and a freshly emitted one must dedup against
/// each other exactly when they denote the same semantic point, which
/// interning-order-dependent handles cannot guarantee across processes.
/// Keyless units are always applied by the fold.
struct ObKey {
  static constexpr uint32_t NoDedup = UINT32_MAX;
  uint32_t Tag = NoDedup;
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;

  bool keyless() const { return Tag == NoDedup; }
  bool operator==(const ObKey &O) const {
    return Tag == O.Tag && A == O.A && B == O.B && C == O.C;
  }
};

/// One fold-atomic group of obligations: every obligation that
/// shares one dedup decision (or a keyless singleton). Jobs emit units in
/// the exact order the serial checker loop evaluates them.
struct ObUnit {
  /// Cap on diagnostics carried per unit. Equals CheckResult::MaxIssues
  /// (statically asserted in the .cpp): the fold retains at most that
  /// many per channel, so carrying more would be waste.
  static constexpr size_t MaxIssues = 8;

  ObKey Key;
  /// Which result channel of the group this unit folds into (checker
  /// passes whose loop feeds several conditions — e.g. (I3) also
  /// discharging choice-function side conditions — use one channel per
  /// condition).
  uint8_t Channel = 0;
  uint32_t Obligations = 0;
  uint32_t Failures = 0;
  /// Diagnostics for the failures, capped at MaxIssues.
  std::vector<std::string> Issues;
};

/// The sink a job emits its units into. Not thread-safe; each job owns its
/// sink for the duration of the call.
class ObSink {
public:
  /// Opens a unit. Units are fold-atomic: either every
  /// obligation recorded until the next begin() counts, or none does.
  void begin(ObKey Key = ObKey(), uint8_t Channel = 0) {
    Units.push_back({Key, Channel, 0, 0, {}});
  }
  /// Records one evaluated obligation in the current unit.
  void countObligation() {
    ensureOpen();
    ++Units.back().Obligations;
  }
  /// Records a failed obligation with a diagnostic.
  void fail(std::string Message) {
    ensureOpen();
    ObUnit &U = Units.back();
    ++U.Failures;
    if (U.Issues.size() < ObUnit::MaxIssues)
      U.Issues.push_back(std::move(Message));
  }

private:
  friend class ObligationScheduler;
  void ensureOpen() {
    if (Units.empty())
      Units.push_back({});
  }
  std::vector<ObUnit> Units;
};

/// Per-condition and aggregate observability of one scheduler run (or of
/// several runs accumulated by the driver).
struct ObligationStats {
  struct Bucket {
    size_t Jobs = 0;
    size_t Units = 0;
    /// Units discarded by the dedup fold (speculative work).
    size_t UnitsDeduped = 0;
    size_t Obligations = 0;
    size_t Failures = 0;
    /// Orbit accounting under symmetry reduction: the condition's
    /// quantifier universe in orbit representatives, and the number of
    /// unreduced configurations those representatives stand for (Σ orbit
    /// sizes). Equal when no reduction applies; both zero when the checker
    /// did not annotate the condition.
    uint64_t OrbitConfigs = 0;
    uint64_t OrbitStates = 0;
    /// Summed per-job wall time (CPU-side cost of the condition).
    double JobSeconds = 0;
  };
  Bucket PerCondition[NumObConditions];
  /// Verdict-cache accounting, obligation-weighted: every obligation a
  /// keyed job would have evaluated counts as a hit (replayed from the
  /// cache) or a miss (evaluated, then recorded). Weighed *before* the
  /// dedup fold — the cache works at job granularity, so speculative
  /// units replay like everything else. Zero when no cache is attached.
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// Subset of Hits served by first-touch decodes from the disk tier.
    uint64_t DiskHits = 0;
    bool Enabled = false;
  };
  CacheStats Cache;
  /// Wall-clock of the scheduler run()s (all conditions together).
  double WallSeconds = 0;
  unsigned Threads = 1;

  Bucket totals() const;
  /// Merges \p Other into this (sums counters, maxes threads).
  void accumulate(const ObligationStats &Other);
  /// One-line human-readable rendering.
  std::string str() const;
};

/// The scheduler. Typical use:
///
///   ObligationScheduler Sched(Threads);
///   auto *G = Sched.group(ObCondition::LeftMovers);
///   for (slice : universeSlices)
///     Sched.add(G, [=](ObSink &S) { ... emit units for slice ... });
///   ... more groups ...
///   Sched.run();
///   CheckResult R = Sched.result(G);
///
/// Jobs across all groups share one pool; groups fold independently.
/// run() may be called once per scheduler instance.
class ObligationScheduler {
public:
  /// A group: an ordered sequence of jobs sharing one dedup namespace and
  /// folding into per-channel CheckResults under one condition each.
  class Group;

  /// Takes its thread budget from \p Config.NumThreads (0 is treated as
  /// 1). Jobs run inline (no threads spawned) when the effective thread
  /// count is 1.
  explicit ObligationScheduler(const EngineConfig &Config);
  ~ObligationScheduler();
  ObligationScheduler(const ObligationScheduler &) = delete;
  ObligationScheduler &operator=(const ObligationScheduler &) = delete;

  /// Creates a group whose channel \p Channel folds under \p Conditions[Channel].
  /// Most groups have the single channel 0.
  Group *group(std::vector<ObCondition> Conditions);
  Group *group(ObCondition Condition) {
    return group(std::vector<ObCondition>{Condition});
  }

  /// Appends a job to \p G. Jobs must be safe to run concurrently with
  /// every other submitted job (shared arenas/caches are; job-local state
  /// must not be shared).
  void add(Group *G, std::function<void(ObSink &)> Job);

  /// Appends a cacheable job: \p KeyFn computes the job's content
  /// fingerprint — a pure function of every input the job's obligations
  /// depend on (see semantics/Fingerprint.h). When a cache is attached,
  /// the scheduler evaluates KeyFn on the worker (fingerprinting
  /// parallelizes with everything else), probes the cache, and on a hit
  /// replays the recorded unit sequence instead of running \p Job; on a
  /// miss it runs \p Job and records the emitted units. Without a cache,
  /// KeyFn is never called.
  void add(Group *G, std::function<Fingerprint()> KeyFn,
           std::function<void(ObSink &)> Job);

  /// Attaches the verdict cache consulted by run(). Must precede run();
  /// the cache must outlive the scheduler. Null detaches.
  void setCache(ObligationCache *C) { Cache = C; }

  /// Runs every submitted job on the pool, folding each into its group
  /// once every earlier-submitted job has been folded. Rethrows the first
  /// exception a job throws (after the pool has stopped).
  void run();

  /// Annotates \p Condition's bucket with its quantifier universe under
  /// symmetry reduction: \p Reps orbit representatives standing for
  /// \p States unreduced configurations. Purely observational (stats
  /// only); may be called before or after run().
  void noteOrbits(ObCondition Condition, uint64_t Reps, uint64_t States);

  /// After run(): the merged result of \p G's channel \p Channel.
  const CheckResult &result(const Group *G, uint8_t Channel = 0) const;

  /// After run(): counts, failures and timings per condition.
  const ObligationStats &stats() const { return Stats; }

  unsigned threads() const { return Threads; }

private:
  struct JobSlot;
  /// Folds job \p JobIdx's units into its group and frees them. Jobs are
  /// folded exactly once each, in index order.
  void fold(size_t JobIdx);

  unsigned Threads;
  std::deque<Group> Groups;
  std::vector<JobSlot> Jobs;
  ObligationStats Stats;
  ObligationCache *Cache = nullptr;
  bool Ran = false;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_OBLIGATIONSCHEDULER_H
