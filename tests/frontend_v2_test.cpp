//===- tests/frontend_v2_test.cpp - staged frontend differential tests --------------===//
///
/// \file
/// The v2 frontend's acceptance surface, checked against the v1 oracle:
/// every shipped example must compile and verify bit-identically under
/// both pipelines (same verdict JSON modulo timings), the HIR optimizer
/// must be idempotent, the printer must round-trip every example, module
/// resolution must merge diamonds exactly once, parameters must obey the
/// default/override/derived rules, and the two ASL protocol ports
/// (ChangRoberts, ProducerConsumer) must match their native-program
/// twins in src/protocols/ execution for execution.
///
//===----------------------------------------------------------------------===//

#include "driver/ReportRender.h"
#include "driver/VerifyDriver.h"
#include "explorer/Explorer.h"
#include "is/ISCheck.h"
#include "lang/Binder.h"
#include "lang/Frontend.h"
#include "lang/HirBuilder.h"
#include "lang/HirEval.h"
#include "lang/HirOptimizer.h"
#include "lang/ModuleResolver.h"
#include "lang/Printer.h"
#include "lang/TypeCheck.h"
#include "protocols/ChangRoberts.h"
#include "protocols/ProducerConsumer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

using namespace isq;
using namespace isq::asl;
using namespace isq::driver;

namespace {

std::string examplePath(const std::string &Name) {
  return std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing file " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string scrubTimings(const std::string &Json) {
  static const std::regex Seconds("(\"[a-z_]*seconds\":)[0-9.]+");
  std::string Out = std::regex_replace(Json, Seconds, "$010");
  // Obligation-cache telemetry is stats, not verdict: the v1 frontend
  // carries no HIR fingerprints, so its runs are cache-ineligible
  // (cache_enabled false, everything a miss) while v2 runs are eligible.
  // The obligation counts and verdicts still compare strictly.
  static const std::regex Cache(
      "(\"(?:cache_hits|cache_misses|disk_hits)\":)[0-9]+");
  Out = std::regex_replace(Out, Cache, "$010");
  static const std::regex Enabled("(\"cache_enabled\":)(?:true|false)");
  return std::regex_replace(Out, Enabled, "$01false");
}

/// With more than one worker thread the cache telemetry (hash-cons and
/// canonicalization hit counts) and the work-stealing steal count depend
/// on thread interleaving; the verdict, obligations and state counts do
/// not. Multithreaded comparisons zero the telemetry, single-threaded
/// ones stay strict.
std::string scrubSchedulingCounters(const std::string &Json) {
  static const std::regex Counter(
      "(\"(?:hash_cons_lookups|hash_cons_hits|transition_cache_lookups|"
      "transition_cache_hits|canon_calls|canon_cache_hits|steals)\":)"
      "[0-9]+");
  return std::regex_replace(Json, Counter, "$010");
}

/// One example with its documented proof artifacts (the "Verify with:"
/// header), at the smallest instance that exercises the proof.
struct ExampleJob {
  const char *File;
  std::map<std::string, int64_t> Consts;
  std::vector<std::string> Eliminate;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;
  bool ArgMajor = false;
};

std::vector<ExampleJob> exampleJobs() {
  return {
      {"ping_pong.asl",
       {{"T", 3}},
       {"Ping", "Pong"},
       {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}},
       {},
       /*ArgMajor=*/true},
      {"broadcast.asl",
       {{"n", 2}},
       {"Broadcast", "Collect"},
       {{"Collect", "CollectAbs"}},
       {},
       /*ArgMajor=*/false},
      {"two_phase_commit.asl",
       {{"n", 2}},
       {"RequestVotes", "Vote", "Decide", "Finalize"},
       {{"Decide", "DecideAbs"}},
       {{"RequestVotes", 8}, {"Decide", 4}},
       /*ArgMajor=*/false},
      // paxos runs at its param defaults (R=2, N=2): no bindings at all.
      {"paxos.asl",
       {},
       {"StartRound", "Join", "Propose", "Vote", "Conclude"},
       {{"Join", "JoinAbs"},
        {"Propose", "ProposeAbs"},
        {"Vote", "VoteAbs"},
        {"Conclude", "ConcludeAbs"}},
       {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}},
       /*ArgMajor=*/true},
      {"producer_consumer.asl",
       {{"T", 3}},
       {"Producer", "Consumer"},
       {{"Consumer", "ConsumerAbs"}},
       {},
       /*ArgMajor=*/true},
      {"chang_roberts.asl",
       {{"n", 3}},
       {"Init", "Handle"},
       {},
       {{"Init", 2}},
       /*ArgMajor=*/true},
  };
}

VerifyOptions optionsFor(const ExampleJob &Job,
                         frontend::FrontendVersion Version) {
  VerifyOptions Options;
  Options.Source = readFile(examplePath(Job.File));
  Options.SourcePath = examplePath(Job.File); // imports resolve from here
  Options.Consts = Job.Consts;
  Options.Eliminate = Job.Eliminate;
  Options.Abstractions = Job.Abstractions;
  Options.Weights = Job.Weights;
  if (Job.ArgMajor)
    Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Frontend = Version;
  return Options;
}

/// Compiles \p Job's example under \p Version, failing the test on any
/// diagnostic.
CompiledModule compileExample(const ExampleJob &Job,
                              frontend::FrontendVersion Version) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      readFile(examplePath(Job.File)), examplePath(Job.File), Job.Consts,
      Version, Diags);
  EXPECT_TRUE(C.has_value())
      << Job.File << ": " << (Diags.empty() ? "" : Diags[0].str());
  return C ? std::move(*C) : CompiledModule();
}

/// The instantiated (pre-optimizer) HIR of \p Source (read from \p Path;
/// imports resolve from there) under \p Consts.
hir::Module buildSourceHir(const std::string &Source, const std::string &Path,
                           const std::map<std::string, int64_t> &Consts) {
  SourceManager SM;
  std::vector<Diagnostic> Diags;
  std::optional<Module> M =
      resolveModules(Source, Path, diskLoader(), SM, Diags);
  EXPECT_TRUE(M.has_value()) << Path;
  SymbolTable Syms;
  EXPECT_TRUE(bindModule(*M, Syms, Diags)) << Path;
  EXPECT_TRUE(typeCheck(*M, Diags)) << Path;
  std::map<std::string, int64_t> Resolved;
  EXPECT_TRUE(resolveConstBindings(*M, Consts, Resolved, Diags)) << Path;
  hir::Module H = buildHir(*M, Syms);
  instantiate(H, Resolved);
  return H;
}

/// The instantiated (pre-optimizer) HIR of \p Job's example.
hir::Module buildExampleHir(const ExampleJob &Job) {
  return buildSourceHir(readFile(examplePath(Job.File)),
                        examplePath(Job.File), Job.Consts);
}

const std::vector<const char *> AllExampleFiles = {
    "broadcast.asl",         "chang_roberts.asl", "lib/ring.asl",
    "paxos.asl",             "ping_pong.asl",     "producer_consumer.asl",
    "two_phase_commit.asl"};

} // namespace

// --- v1/v2 differential over the example corpus ---------------------------

TEST(FrontendV2Test, EveryExampleVerdictBitIdenticalAcrossFrontends) {
  for (const ExampleJob &Job : exampleJobs()) {
    VerifyResult V1 =
        verifyModule(optionsFor(Job, frontend::FrontendVersion::V1));
    VerifyResult V2 =
        verifyModule(optionsFor(Job, frontend::FrontendVersion::V2));
    EXPECT_TRUE(V1.Accepted) << Job.File << ": " << V1.Summary;
    EXPECT_TRUE(V2.Accepted) << Job.File << ": " << V2.Summary;
    EXPECT_EQ(scrubTimings(renderJson(V1)), scrubTimings(renderJson(V2)))
        << Job.File << ": frontends diverge";
  }
}

TEST(FrontendV2Test, EveryExampleProgramShapeMatchesAcrossFrontends) {
  // Beyond the verdict: the compiled artifacts themselves must agree —
  // identical initial store and identical full state space.
  for (const ExampleJob &Job : exampleJobs()) {
    CompiledModule C1 = compileExample(Job, frontend::FrontendVersion::V1);
    CompiledModule C2 = compileExample(Job, frontend::FrontendVersion::V2);
    EXPECT_EQ(C1.InitialStore.str(), C2.InitialStore.str()) << Job.File;
    ExploreResult R1 = explore(C1.P, initialConfiguration(C1.InitialStore));
    ExploreResult R2 = explore(C2.P, initialConfiguration(C2.InitialStore));
    EXPECT_EQ(R1.Stats.NumConfigurations, R2.Stats.NumConfigurations)
        << Job.File;
    EXPECT_EQ(R1.Stats.NumTransitions, R2.Stats.NumTransitions) << Job.File;
    EXPECT_EQ(R1.FailureReachable, R2.FailureReachable) << Job.File;
    ASSERT_EQ(R1.TerminalStores.size(), R2.TerminalStores.size())
        << Job.File;
    for (size_t I = 0; I < R1.TerminalStores.size(); ++I)
      EXPECT_EQ(R1.TerminalStores[I].str(), R2.TerminalStores[I].str())
          << Job.File;
  }
}

// --- HIR optimizer --------------------------------------------------------

TEST(FrontendV2Test, HirOptimizerIsIdempotentOnEveryExample) {
  for (const ExampleJob &Job : exampleJobs()) {
    hir::Module H = buildExampleHir(Job);
    optimizeHir(H);
    std::string Once = hir::print(H);
    optimizeHir(H);
    EXPECT_EQ(Once, hir::print(H))
        << Job.File << ": optimize is not a fixpoint";
  }
}

// --- Printer round-trip ---------------------------------------------------

TEST(FrontendV2Test, PrinterRoundTripsEveryExample) {
  // parse(print(parse(f))) == parse(f), compared via the printer itself:
  // printing the reparsed module must reproduce the first print exactly.
  for (const char *Name : AllExampleFiles) {
    std::vector<Diagnostic> Diags;
    std::optional<Module> First =
        parseModule(readFile(examplePath(Name)), Diags);
    ASSERT_TRUE(First.has_value()) << Name;
    std::string Printed = printModule(*First);
    std::optional<Module> Second = parseModule(Printed, Diags);
    ASSERT_TRUE(Second.has_value())
        << Name << ": printed form does not reparse:\n" << Printed;
    EXPECT_EQ(Printed, printModule(*Second)) << Name;
  }
}

// --- Parametric protocols -------------------------------------------------

TEST(FrontendV2Test, ParamDefaultsOverridesAndDerivedConsts) {
  const char *Source = "param n: int := 2;\n"
                       "const m: int := n * 3;\n"
                       "var x: int := m;\n"
                       "action Main() { skip; }\n";
  for (auto Version :
       {frontend::FrontendVersion::V1, frontend::FrontendVersion::V2}) {
    std::vector<Diagnostic> Diags;
    // Default: n = 2, so the derived m = 6.
    auto Defaulted = frontend::compileSource(Source, "", {}, Version, Diags);
    ASSERT_TRUE(Defaulted.has_value());
    EXPECT_EQ(Defaulted->InitialStore.get("x").getInt(), 6);
    // Override: --param n=5.
    auto Overridden =
        frontend::compileSource(Source, "", {{"n", 5}}, Version, Diags);
    ASSERT_TRUE(Overridden.has_value());
    EXPECT_EQ(Overridden->InitialStore.get("x").getInt(), 15);
    // Derived constants are not externally bindable.
    Diags.clear();
    auto BoundDerived =
        frontend::compileSource(Source, "", {{"m", 9}}, Version, Diags);
    EXPECT_FALSE(BoundDerived.has_value());
    ASSERT_FALSE(Diags.empty());
    EXPECT_NE(Diags[0].Message.find("derived"), std::string::npos)
        << Diags[0].Message;
    // A defaultless param requires a binding.
    Diags.clear();
    auto Unbound = frontend::compileSource(
        "param n: int;\nvar x: int := n;\naction Main() { skip; }\n", "", {},
        Version, Diags);
    EXPECT_FALSE(Unbound.has_value());
    ASSERT_FALSE(Diags.empty());
    EXPECT_NE(Diags[0].Message.find("no binding"), std::string::npos)
        << Diags[0].Message;
  }
}

TEST(FrontendV2Test, PaxosParamInstancesMatchV1ConstPrograms) {
  // The acceptance criterion for parametric protocols: one paxos.asl,
  // instantiated at two sizes via bindings, produces verdicts
  // bit-identical to the v1 (pre-refactor oracle) compilation of the same
  // binding, for every --threads value.
  ExampleJob Paxos = exampleJobs()[3];
  ASSERT_STREQ(Paxos.File, "paxos.asl");
  for (unsigned Threads : {1u, 2u}) {
    VerifyOptions O1 = optionsFor(Paxos, frontend::FrontendVersion::V1);
    VerifyOptions O2 = optionsFor(Paxos, frontend::FrontendVersion::V2);
    O1.Consts = O2.Consts = {{"R", 2}, {"N", 2}};
    O1.Engine.NumThreads = O2.Engine.NumThreads = Threads;
    VerifyResult V1 = verifyModule(O1);
    VerifyResult V2 = verifyModule(O2);
    EXPECT_TRUE(V2.Accepted) << V2.Summary;
    std::string J1 = scrubTimings(renderJson(V1));
    std::string J2 = scrubTimings(renderJson(V2));
    if (Threads > 1) {
      J1 = scrubSchedulingCounters(J1);
      J2 = scrubSchedulingCounters(J2);
    }
    EXPECT_EQ(J1, J2) << "N=2, threads " << Threads;
  }
  // N=3 needs the larger cooperation weights from the example header; the
  // IS check dominates the runtime, so the instance cross-check is
  // skipped and only one thread count is exercised.
  VerifyOptions O1 = optionsFor(Paxos, frontend::FrontendVersion::V1);
  VerifyOptions O2 = optionsFor(Paxos, frontend::FrontendVersion::V2);
  O1.Consts = O2.Consts = {{"R", 2}, {"N", 3}};
  O1.Weights = O2.Weights = {{"StartRound", 11}, {"Propose", 6},
                             {"Conclude", 2}};
  O1.CrossCheck = O2.CrossCheck = false;
  O1.Engine.NumThreads = O2.Engine.NumThreads = 2;
  VerifyResult V1 = verifyModule(O1);
  VerifyResult V2 = verifyModule(O2);
  EXPECT_TRUE(V2.Accepted) << V2.Summary;
  EXPECT_EQ(scrubSchedulingCounters(scrubTimings(renderJson(V1))),
            scrubSchedulingCounters(scrubTimings(renderJson(V2))))
      << "N=3";
}

// --- Gate mode --------------------------------------------------------------

namespace {

/// How often gate mode was compared with the full run, and how often the
/// gate held: a comparison that never sees a false gate proves little.
struct GateTally {
  size_t Contexts = 0;
  size_t Held = 0;
};

/// Evaluates every action's gate of (\p Source, \p Path) under \p Consts at
/// every (store, args, Ω) context of its explored universe: the store and
/// Ω of each reachable configuration, with the arguments of every PA
/// there whose parameter types match the action's (zero-parameter
/// actions at every configuration). Gate mode must agree with the full
/// run's CanFail, and with the lowered gate the checkers call.
GateTally expectGateModeMatchesFullRun(
    const std::string &Source, const std::string &Path,
    const std::map<std::string, int64_t> &Consts) {
  // The module the lowered gates evaluate: optimized, facts computed.
  hir::Module H = buildSourceHir(Source, Path, Consts);
  optimizeHir(H);
  for (hir::Action &A : H.Actions)
    markAssertFacts(A.Body);
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      Source, Path, Consts, frontend::FrontendVersion::V2, Diags);
  EXPECT_TRUE(C.has_value())
      << Path << ": " << (Diags.empty() ? "" : Diags[0].str());
  if (!C)
    return {};

  std::map<std::string, std::string> SignatureOf; // parameter types
  for (const hir::Action &A : H.Actions) {
    std::string &Sig = SignatureOf[A.Name];
    for (const hir::Param &P : A.Params)
      Sig += H.Types.get(P.Type).str() + ";";
  }

  GateTally Tally;
  ExploreResult R = explore(C->P, initialConfiguration(C->InitialStore));
  for (const Configuration &Config : R.Reachable) {
    const PaMultiset &Omega = Config.pendingAsyncs();
    std::map<std::string, std::set<std::vector<Value>>> ArgsBySignature;
    for (const auto &[PA, Count] : Omega.entries())
      ArgsBySignature[SignatureOf.at(PA.Action.str())].insert(PA.Args);
    ArgsBySignature[""].insert({});
    for (const hir::Action &A : H.Actions) {
      const std::string &Sig = SignatureOf.at(A.Name);
      for (const std::vector<Value> &Args : ArgsBySignature[Sig]) {
        HirEnv Env;
        Env.Slots.assign(A.NumSlots, Value::unit());
        for (size_t I = 0; I < A.Params.size(); ++I)
          Env.Slots[A.Params[I].Slot] = Args[I];
        Env.Types = &H.Types;
        Env.Omega = &Omega;
        bool Full = !runHirBody(A.Body, Config.global(), Env).CanFail;
        bool Gate =
            !runHirBody(A.Body, Config.global(), Env, RunMode::Gate).CanFail;
        bool Lowered =
            C->P.action(A.Name).evalGate(Config.global(), Args, Omega);
        ++Tally.Contexts;
        Tally.Held += Full;
        EXPECT_EQ(Gate, Full) << Path << ": " << A.Name << " at "
                              << Config.str();
        EXPECT_EQ(Lowered, Full) << Path << ": " << A.Name << " at "
                                 << Config.str();
      }
    }
  }
  return Tally;
}

} // namespace

TEST(FrontendV2Test, GateModeMatchesFullRunOnEveryExample) {
  // The serve-manifest instances (chang_roberts at its documented size)
  // plus the diamond-import fixture.
  const std::vector<std::pair<std::string, std::map<std::string, int64_t>>>
      Instances = {
          {examplePath("ping_pong.asl"), {{"T", 3}}},
          {examplePath("broadcast.asl"), {{"n", 3}}},
          {examplePath("two_phase_commit.asl"), {{"n", 2}}},
          {examplePath("producer_consumer.asl"), {{"T", 3}}},
          {examplePath("paxos.asl"), {{"R", 2}, {"N", 2}}},
          {examplePath("paxos.asl"), {{"R", 2}, {"N", 3}}},
          {examplePath("chang_roberts.asl"), {{"n", 3}}},
          {std::string(ISQ_SOURCE_DIR) + "/tests/asl_imports/diamond_main.asl",
           {}},
      };
  GateTally Total;
  for (const auto &[Path, Consts] : Instances) {
    GateTally T = expectGateModeMatchesFullRun(readFile(Path), Path, Consts);
    EXPECT_GT(T.Contexts, 0u) << Path;
    Total.Contexts += T.Contexts;
    Total.Held += T.Held;
  }
  EXPECT_GT(Total.Held, 0u);
  EXPECT_LT(Total.Held, Total.Contexts) << "no gate was ever false";
}

TEST(FrontendV2Test, GateModeMatchesFullRunPastTheAssertPrefix) {
  // Asserts that do not lead the body: after a choose, inside an if
  // branch, inside a for body, after an assignment the assert reads, and
  // after blocks, or blocks nested in blocks, that contain none (the
  // enclosing continuations carry them).
  // Tick only feeds the universe stores and int arguments.
  const char *Source = R"(
var coin: set<bool> := insert(insert({}, true), false);
var x: int := 0;
var m: map<int, int> := map k in 0 .. 1 : 0;
var zero: set<int> := insert({}, 0);

action Main() {
  for i in 0 .. 3 {
    async Tick(i);
  }
}

action Tick(i: int) {
  choose b in coin;
  if b {
    x := x + i;
    m[i % 2] := m[i % 2] + 1;
  }
}

action AfterChoose(i: int) {
  choose k in insert(zero, i);
  assert x + k <= 4;
}

action InIfBranch(i: int) {
  if i % 2 == 0 {
    x := x + 1;
  } else {
    choose b in coin;
    assert b || x != i;
  }
}

action InForBody(i: int) {
  for j in 0 .. i {
    choose b in coin;
    if b {
      m[j % 2] := m[j % 2] + 1;
    }
    assert m[j % 2] <= 2;
  }
}

action AfterAssign(i: int) {
  x := x + i;
  assert x < 5;
}

action AfterBlocks(i: int) {
  choose b in coin;
  if b {
    x := x + 1;
  }
  for j in 1 .. i {
    x := x + 1;
  }
  assert x <= 5;
}

action AfterNestedBlocks(i: int) {
  if i > 0 {
    if i > 1 {
      x := x + i;
    }
  }
  assert x <= 4;
}

action QuietAfterAwait(i: int) {
  await x >= 1;
  choose b in coin;
  assert b || pending_le(Tick, i) == 0;
}
)";
  GateTally T = expectGateModeMatchesFullRun(Source, "gate-fixture", {});
  EXPECT_GT(T.Held, 0u);
  EXPECT_LT(T.Held, T.Contexts) << "no gate was ever false";
}

// --- Module resolution ----------------------------------------------------

TEST(FrontendV2Test, DiamondImportMergesBaseExactlyOnce) {
  std::string Dir = std::string(ISQ_SOURCE_DIR) + "/tests/asl_imports/";
  for (auto Version :
       {frontend::FrontendVersion::V1, frontend::FrontendVersion::V2}) {
    std::vector<Diagnostic> Diags;
    auto C = frontend::compileSource(readFile(Dir + "diamond_main.asl"),
                                     Dir + "diamond_main.asl", {}, Version,
                                     Diags);
    ASSERT_TRUE(C.has_value())
        << (Diags.empty() ? "" : Diags[0].str());
    // Were the base merged twice, its variable would be a diagnosed
    // duplicate and the sum below would see a stale initializer.
    EXPECT_EQ(C->InitialStore.get("base").getInt(), 1);
    EXPECT_EQ(C->InitialStore.get("total").getInt(), 3);
  }
}

// --- Native-vs-ASL protocol differentials ---------------------------------

TEST(FrontendV2Test, ChangRobertsAslMatchesNative) {
  protocols::ChangRobertsParams Params; // 3 nodes, identity IDs
  ISApplication Native = protocols::makeChangRobertsOneShotIS(Params);
  Store NativeInit = protocols::makeChangRobertsInitialStore(Params);
  EXPECT_TRUE(checkIS(Native, {{NativeInit, {}}}).ok());

  ExampleJob Job = exampleJobs()[5];
  ASSERT_STREQ(Job.File, "chang_roberts.asl");
  VerifyResult Asl = verifyModule(optionsFor(Job, frontend::FrontendVersion::V2));
  EXPECT_TRUE(Asl.Accepted) << Asl.Summary;

  // Same state space (modulo the native store's constant-valued n) and
  // the same unique final outcome: only node n leads.
  CompiledModule C = compileExample(Job, frontend::FrontendVersion::V2);
  ExploreResult NativeR =
      explore(Native.P, initialConfiguration(NativeInit));
  ExploreResult AslR = explore(C.P, initialConfiguration(C.InitialStore));
  EXPECT_FALSE(NativeR.FailureReachable);
  EXPECT_FALSE(AslR.FailureReachable);
  EXPECT_EQ(NativeR.Stats.NumConfigurations, AslR.Stats.NumConfigurations);
  EXPECT_EQ(NativeR.Stats.NumTransitions, AslR.Stats.NumTransitions);
  ASSERT_EQ(NativeR.TerminalStores.size(), 1u);
  ASSERT_EQ(AslR.TerminalStores.size(), 1u);
  EXPECT_TRUE(
      protocols::checkChangRobertsSpec(NativeR.TerminalStores[0], Params));
  EXPECT_EQ(NativeR.TerminalStores[0].get("leader").str(),
            AslR.TerminalStores[0].get("leader").str());
  EXPECT_EQ(NativeR.TerminalStores[0].get("id").str(),
            AslR.TerminalStores[0].get("id").str());
}

TEST(FrontendV2Test, ProducerConsumerAslMatchesNative) {
  protocols::ProducerConsumerParams Params; // 3 items
  ISApplication Native = protocols::makeProducerConsumerIS(Params);
  Store NativeInit = protocols::makeProducerConsumerInitialStore(Params);
  EXPECT_TRUE(checkIS(Native, {{NativeInit, {}}}).ok());

  ExampleJob Job = exampleJobs()[4];
  ASSERT_STREQ(Job.File, "producer_consumer.asl");
  VerifyResult Asl = verifyModule(optionsFor(Job, frontend::FrontendVersion::V2));
  EXPECT_TRUE(Asl.Accepted) << Asl.Summary;

  CompiledModule C = compileExample(Job, frontend::FrontendVersion::V2);
  ExploreResult NativeR =
      explore(Native.P, initialConfiguration(NativeInit));
  ExploreResult AslR = explore(C.P, initialConfiguration(C.InitialStore));
  EXPECT_FALSE(NativeR.FailureReachable);
  EXPECT_FALSE(AslR.FailureReachable);
  EXPECT_EQ(NativeR.Stats.NumConfigurations, AslR.Stats.NumConfigurations);
  EXPECT_EQ(NativeR.Stats.NumTransitions, AslR.Stats.NumTransitions);
  ASSERT_EQ(NativeR.TerminalStores.size(), 1u);
  ASSERT_EQ(AslR.TerminalStores.size(), 1u);
  EXPECT_TRUE(protocols::checkProducerConsumerSpec(NativeR.TerminalStores[0],
                                                   Params));
  for (const char *Var : {"queue", "produced", "consumed"})
    EXPECT_EQ(NativeR.TerminalStores[0].get(Var).str(),
              AslR.TerminalStores[0].get(Var).str())
        << Var;
}
