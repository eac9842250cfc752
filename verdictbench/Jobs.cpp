//===- Jobs.cpp - Corpus, seeded job streams and known answers ------------===//

#include "Jobs.h"

#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace vb;

const char *const vb::ConditionNames[NumConditions] = {
    "side_conditions", "abstraction_refinement", "base_case", "conclusion",
    "inductive_step",  "left_movers",            "cooperation"};

namespace {

const char *const CorpusFiles[] = {
    "examples/asl/ping_pong.asl",
    "examples/asl/broadcast.asl",
    "examples/asl/two_phase_commit.asl",
    "examples/asl/producer_consumer.asl",
    "examples/asl/chang_roberts.asl",
    "examples/asl/lib/ring.asl",
    "examples/asl/paxos.asl",
    "tests/asl_imports/diamond_main.asl",
    "tests/asl_imports/diamond_left.asl",
    "tests/asl_imports/diamond_right.asl",
    "tests/asl_imports/diamond_base.asl",
    "tests/asl_errors/bind_errors.asl",
    "tests/asl_errors/import_cycle_a.asl",
    "tests/asl_errors/import_cycle_b.asl",
    "tests/asl_errors/import_missing.asl",
    "tests/asl_errors/parse_bad.asl",
    "tests/asl_errors/type_errors.asl",
    "tests/asl_errors/undefined_names.asl",
};

/// A documented proof sketch: the example's `// Verify with:` invocation
/// minus its instance size.
struct Sketch {
  const char *Name;
  const char *Path;
  std::vector<std::string> Eliminate;
  bool ArgMajor;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;
};

const Sketch PingPong{"ping_pong", "examples/asl/ping_pong.asl",
                      {"Ping", "Pong"}, true,
                      {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}}, {}};
const Sketch Broadcast{"broadcast", "examples/asl/broadcast.asl",
                       {"Broadcast", "Collect"}, false,
                       {{"Collect", "CollectAbs"}}, {}};
const Sketch TwoPhase{"two_phase_commit", "examples/asl/two_phase_commit.asl",
                      {"RequestVotes", "Vote", "Decide", "Finalize"}, false,
                      {{"Decide", "DecideAbs"}},
                      {{"RequestVotes", 8}, {"Decide", 4}}};
const Sketch ProdCons{"producer_consumer",
                      "examples/asl/producer_consumer.asl",
                      {"Producer", "Consumer"}, true,
                      {{"Consumer", "ConsumerAbs"}}, {}};
const Sketch ChangRoberts{"chang_roberts", "examples/asl/chang_roberts.asl",
                          {"Init", "Handle"}, true, {}, {{"Init", 2}}};
const Sketch Paxos{"paxos", "examples/asl/paxos.asl",
                   {"StartRound", "Join", "Propose", "Vote", "Conclude"}, true,
                   {{"Join", "JoinAbs"},
                    {"Propose", "ProposeAbs"},
                    {"Vote", "VoteAbs"},
                    {"Conclude", "ConcludeAbs"}},
                   {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}}};
const Sketch Diamond{"diamond", "tests/asl_imports/diamond_main.asl",
                     {"Main"}, false, {}, {}};

std::string constsKey(const std::map<std::string, int64_t> &Consts) {
  std::string Out;
  for (const auto &[Name, Value] : Consts)
    Out += " " + Name + "=" + std::to_string(Value);
  return Out;
}

Job sketchJob(const Corpus &C, const Sketch &S,
              std::map<std::string, int64_t> Consts) {
  Job J;
  J.Key = std::string(S.Name) + constsKey(Consts) + " sketch";
  J.Kind = "sketch";
  J.ExpectedExit = 0;
  J.Path = S.Path;
  J.Source = C.Files.at(S.Path);
  J.Consts = std::move(Consts);
  J.Eliminate = S.Eliminate;
  J.ArgMajor = S.ArgMajor;
  J.Abstractions = S.Abstractions;
  J.Weights = S.Weights;
  return J;
}

/// A sketch broken by dropping the abstraction of \p Action.
Job dropAbstraction(const Corpus &C, const Sketch &S,
                    std::map<std::string, int64_t> Consts,
                    const std::string &Action) {
  Job J = sketchJob(C, S, std::move(Consts));
  J.Abstractions.erase(Action);
  J.Key.replace(J.Key.size() - 6, 6, "broken:drop-abs-" + Action);
  J.Kind = "broken";
  J.ExpectedExit = 1;
  return J;
}

/// A sketch broken by lowering the cooperation weight of \p Action.
Job lowerWeight(const Corpus &C, const Sketch &S,
                std::map<std::string, int64_t> Consts,
                const std::string &Action, uint64_t Weight) {
  Job J = sketchJob(C, S, std::move(Consts));
  J.Weights[Action] = Weight;
  J.Key.replace(J.Key.size() - 6, 6,
                "broken:weight-" + Action + "=" + std::to_string(Weight));
  J.Kind = "broken";
  J.ExpectedExit = 1;
  return J;
}

Job malformedJob(const Corpus &C, const std::string &Path) {
  Job J;
  J.Key = "malformed " + Path.substr(Path.rfind('/') + 1);
  J.Kind = "malformed";
  J.ExpectedExit = 2;
  J.Path = Path;
  J.Source = C.Files.at(Path);
  J.Eliminate = {"Main"};
  return J;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

template <typename T> void shuffle(std::vector<T> &V, isq::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// The fixed multiset of one corpus-mix pass: every example at a small
/// range of instance sizes, broken sketches, and every malformed source.
std::vector<Job> corpusPass(const Corpus &C) {
  std::vector<Job> Jobs;
  for (int64_t T : {2, 3, 4, 5})
    Jobs.push_back(sketchJob(C, PingPong, {{"T", T}}));
  for (int64_t N : {2, 3, 4})
    Jobs.push_back(sketchJob(C, Broadcast, {{"n", N}}));
  for (int64_t N : {2, 3})
    Jobs.push_back(sketchJob(C, TwoPhase, {{"n", N}}));
  for (int64_t T : {2, 3, 4, 5})
    Jobs.push_back(sketchJob(C, ProdCons, {{"T", T}}));
  for (int64_t N : {3, 4, 5})
    Jobs.push_back(sketchJob(C, ChangRoberts, {{"n", N}}));
  for (auto [R, N] : {std::pair<int64_t, int64_t>{1, 2}, {2, 2}, {1, 3}})
    Jobs.push_back(sketchJob(C, Paxos, {{"R", R}, {"N", N}}));
  Jobs.push_back(sketchJob(C, Diamond, {}));

  Jobs.push_back(dropAbstraction(C, PingPong, {{"T", 3}}, "Ping"));
  Jobs.push_back(dropAbstraction(C, PingPong, {{"T", 4}}, "Pong"));
  for (int64_t N : {3, 4})
    Jobs.push_back(dropAbstraction(C, Broadcast, {{"n", N}}, "Collect"));
  Jobs.push_back(lowerWeight(C, TwoPhase, {{"n", 2}}, "RequestVotes", 1));
  Jobs.push_back(lowerWeight(C, TwoPhase, {{"n", 2}}, "Decide", 1));
  Jobs.push_back(dropAbstraction(C, TwoPhase, {{"n", 3}}, "Decide"));
  for (int64_t T : {3, 5})
    Jobs.push_back(dropAbstraction(C, ProdCons, {{"T", T}}, "Consumer"));
  for (int64_t N : {3, 4, 5})
    Jobs.push_back(lowerWeight(C, ChangRoberts, {{"n", N}}, "Init", 1));
  for (int64_t R : {1, 2})
    Jobs.push_back(
        lowerWeight(C, Paxos, {{"R", R}, {"N", 2}}, "StartRound", 1));

  for (const char *Path : CorpusFiles)
    if (std::string(Path).find("asl_errors/") != std::string::npos)
      Jobs.push_back(malformedJob(C, Path));
  return Jobs;
}

/// A loop `for Var in 1 .. Upper { Body }` followed by its three peels: the
/// first iteration, the last, and both. \p Body lists the loop's statements
/// with '#' standing for the index. Each peel keeps the behaviour and has an
/// optimized HIR of its own (non-empty loops are never unrolled), so moving
/// to a form not yet used re-checks the obligations of its action.
std::vector<std::string> peelForms(const std::string &Var,
                                   const std::string &Upper,
                                   const std::vector<std::string> &Body) {
  auto Stmts = [&](const std::string &Index, const std::string &Indent) {
    std::string Out;
    for (std::string Line : Body) {
      for (size_t At; (At = Line.find('#')) != std::string::npos;)
        Line.replace(At, 1, Index);
      Out += Indent + Line + "\n";
    }
    return Out;
  };
  auto Loop = [&](const std::string &Lo, const std::string &Hi) {
    return "  for " + Var + " in " + Lo + " .. " + Hi + " {\n" +
           Stmts(Var, "    ") + "  }\n";
  };
  std::string Last = Upper + " - 1";
  return {Loop("1", Upper), Stmts("1", "  ") + Loop("2", Upper),
          Loop("1", Last) + Stmts(Upper, "  "),
          Stmts("1", "  ") + Loop("2", Last) + Stmts(Upper, "  ")};
}

/// The edits of a serve-edits session after its base submission.
const char *const EditKinds[] = {"comment", "weight", "peel", "resubmit"};

/// Per-instance edit material for serve-edits: the action whose
/// cooperation weight may be raised without breaking (CO), and the forms a
/// loop of one action takes as the session peels it. Forms[0] is the loop
/// as written.
struct EditPlan {
  Job Base;
  std::string WeightAction;
  std::vector<std::string> Forms;
};

std::vector<EditPlan> servePlans(const Corpus &C) {
  EditPlan Px;
  Px.Base = sketchJob(C, Paxos, {{"R", 2}, {"N", 2}});
  Px.WeightAction = "StartRound";
  Px.Forms = peelForms("r", "R", {"async StartRound(#);"});
  EditPlan Tpc;
  Tpc.Base = sketchJob(C, TwoPhase, {{"n", 3}});
  Tpc.WeightAction = "RequestVotes";
  Tpc.Forms = peelForms(
      "i", "n", {"reqCh[#] := insert(reqCh[#], 1);", "async Vote(#);"});
  return {Px, Tpc};
}

} // namespace

bool vb::readCorpus(const std::string &Root, Corpus &Out,
                    std::string &Error) {
  Out.Files.clear();
  for (const char *Path : CorpusFiles) {
    std::ifstream In(Root + "/" + Path, std::ios::binary);
    if (!In) {
      Error = "cannot read corpus file " + Root + "/" + Path;
      return false;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    Out.Files[Path] = Text.str();
  }
  return true;
}

isq::driver::VerifyOptions Job::options(const std::string &Root,
                                        unsigned Threads) const {
  isq::driver::VerifyOptions O;
  O.Source = Source;
  O.SourcePath = Root + "/" + Path;
  O.Consts = Consts;
  O.Eliminate = Eliminate;
  O.Order = ArgMajor ? isq::driver::VerifyOptions::RankOrder::ArgMajor
                     : isq::driver::VerifyOptions::RankOrder::ActionMajor;
  O.Abstractions = Abstractions;
  O.Weights = Weights;
  O.CrossCheck = true;
  O.Engine.NumThreads = Threads;
  return O;
}

isq::serve::SubmitRequest Job::request(uint64_t RequestId) const {
  isq::serve::SubmitRequest R;
  R.RequestId = RequestId;
  R.Source = Source;
  R.Consts = Consts;
  R.Eliminate = Eliminate;
  R.ArgMajor = ArgMajor;
  R.Abstractions = Abstractions;
  R.Weights = Weights;
  R.CrossCheck = true;
  return R;
}

std::string Job::str() const {
  std::string Out = Key + " | " + (Edit.empty() ? Kind : Edit) + " | " +
                    Path + " | src=" + hex(std::hash<std::string>()(Source));
  for (const auto &[Name, W] : Weights)
    Out += " " + Name + "=" + std::to_string(W);
  for (const auto &[Name, Abs] : Abstractions)
    Out += " " + Name + "~" + Abs;
  return Out;
}

std::vector<Job> vb::paxosDeepJobs(const Corpus &C, uint64_t Seed, Size S) {
  Job J = S == Size::Full
              ? sketchJob(C, Paxos, {{"R", 2}, {"N", 3}})
              : sketchJob(C, Paxos, {{"R", 2}, {"N", 2}});
  if (S == Size::Full) {
    // The examples/asl/serve_manifest.txt weights for three acceptors.
    J.Weights = {{"StartRound", 11}, {"Propose", 6}, {"Conclude", 2}};
  }
  isq::Rng R(Seed);
  J.Source = "// paxos-deep " + hex(R.next()) + "\n" + J.Source;
  return {J};
}

std::vector<Job> vb::corpusMixJobs(const Corpus &C, uint64_t Seed, Size S) {
  std::vector<Job> Jobs = corpusPass(C);
  if (S == Size::Smoke) {
    // One job of each kind, including an import-resolving one.
    std::vector<Job> Few;
    for (const Job &J : Jobs)
      if (J.Key == "chang_roberts n=3 sketch" ||
          J.Key == "broadcast n=3 broken:drop-abs-Collect" ||
          J.Key == "malformed parse_bad.asl")
        Few.push_back(J);
    Jobs = std::move(Few);
  }
  isq::Rng R(Seed);
  shuffle(Jobs, R);
  for (Job &J : Jobs)
    if (J.Kind != "malformed")
      J.Source = "// corpus-mix " + hex(R.next()) + "\n" + J.Source;
  return Jobs;
}

std::vector<std::vector<Job>> vb::serveSessions(const Corpus &C,
                                                uint64_t Seed,
                                                unsigned Clients, Size S) {
  std::vector<EditPlan> Plans = servePlans(C);
  isq::Rng R(Seed);
  size_t Rotation = R.below(Plans.size());
  std::vector<std::vector<Job>> Sessions;
  for (unsigned Client = 0; Client < Clients; ++Client) {
    // A distinct instance per client keeps every cache hit count
    // independent of how the clients interleave.
    const EditPlan &Plan = Plans[(Client + Rotation) % Plans.size()];
    // The edit mix is assumed, not recorded: every kind gets the same
    // share, as many steps as the plan has peels, so that every peel moves
    // to a form the session has not checked yet.
    const size_t PerKind = S == Size::Full ? Plan.Forms.size() - 1 : 1;
    std::vector<std::string> Steps;
    for (const char *Edit : EditKinds)
      Steps.insert(Steps.end(), PerKind, Edit);
    shuffle(Steps, R);

    Job Current = Plan.Base;
    Current.Edit = "base";
    size_t Form = 0;
    std::vector<Job> Session{Current};
    for (size_t K = 0; K < Steps.size(); ++K) {
      const std::string &Edit = Steps[K];
      if (Edit != "resubmit") {
        // Every edit also appends a comment unique to this step, so each
        // edited request misses the verdict cache.
        Current.Source += "// edit " + std::to_string(Client) + "." +
                          std::to_string(K) + " " + hex(R.next()) + "\n";
        if (Edit == "weight")
          Current.Weights[Plan.WeightAction] += 1 + R.below(3);
        if (Edit == "peel") {
          const std::string &From = Plan.Forms[Form];
          const std::string &To = Plan.Forms[++Form];
          size_t At = Current.Source.find(From);
          if (At == std::string::npos)
            throw std::runtime_error("serve-edits: no loop to peel in " +
                                     Plan.Base.Path);
          Current.Source.replace(At, From.size(), To);
        }
      }
      Current.Edit = Edit;
      Session.push_back(Current);
    }
    Sessions.push_back(std::move(Session));
  }
  return Sessions;
}

std::vector<Job> vb::answerCatalogue(const Corpus &C) {
  std::vector<Job> Jobs = corpusPass(C);
  Jobs.push_back(paxosDeepJobs(C, 1, Size::Full).front());
  return Jobs;
}

std::string Answer::str() const {
  auto List = [](const std::array<uint64_t, NumConditions> &V) {
    std::string Out;
    for (size_t I = 0; I < V.size(); ++I)
      Out += (I ? "," : "") + std::to_string(V[I]);
    return Out;
  };
  return "exit=" + std::to_string(Exit) + " obligations=" + List(Obligations) +
         " failures=" + List(Failures) + " configs=" + std::to_string(Configs) +
         " configs_p=" + std::to_string(ConfigsP) +
         " configs_pprime=" + std::to_string(ConfigsPPrime) +
         " diagnostics=" + std::to_string(Diagnostics);
}

bool vb::readAnswers(const std::string &Path,
                     std::map<std::string, Answer> &Out, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read known answers " + Path;
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Bar = Line.find(" | ");
    if (Bar == std::string::npos) {
      Error = Path + ":" + std::to_string(LineNo) + ": missing ' | '";
      return false;
    }
    Answer A;
    std::istringstream Fields(Line.substr(Bar + 3));
    std::string Field;
    size_t Seen = 0;
    auto List = [](const std::string &Text,
                   std::array<uint64_t, NumConditions> &V) {
      std::istringstream Items(Text);
      std::string Item;
      size_t I = 0;
      while (std::getline(Items, Item, ',') && I < V.size())
        V[I++] = std::stoull(Item);
      return I == V.size();
    };
    try {
      while (Fields >> Field) {
        size_t Eq = Field.find('=');
        std::string Name = Field.substr(0, Eq);
        std::string Value = Eq == std::string::npos ? "" : Field.substr(Eq + 1);
        bool Ok = true;
        if (Name == "exit")
          A.Exit = std::stoi(Value);
        else if (Name == "obligations")
          Ok = List(Value, A.Obligations);
        else if (Name == "failures")
          Ok = List(Value, A.Failures);
        else if (Name == "configs")
          A.Configs = std::stoull(Value);
        else if (Name == "configs_p")
          A.ConfigsP = std::stoull(Value);
        else if (Name == "configs_pprime")
          A.ConfigsPPrime = std::stoull(Value);
        else if (Name == "diagnostics")
          A.Diagnostics = std::stoull(Value);
        else
          Ok = false;
        if (!Ok)
          throw std::invalid_argument(Field);
        ++Seen;
      }
    } catch (const std::exception &) {
      Error = Path + ":" + std::to_string(LineNo) + ": bad field '" + Field +
              "'";
      return false;
    }
    if (Seen != 7) {
      Error = Path + ":" + std::to_string(LineNo) + ": expected 7 fields";
      return false;
    }
    Out[Line.substr(0, Bar)] = A;
  }
  return true;
}

bool vb::writeAnswers(const std::string &Path,
                      const std::map<std::string, Answer> &Answers) {
  std::ofstream Out(Path);
  Out << "# Known answers of the verdict-path benchmark, pinned from the\n"
         "# product at the commit that introduced the benchmark (regenerate\n"
         "# with `verdictbench pin`). One line per job key:\n"
         "#   <key> | exit obligations failures configs configs_p "
         "configs_pprime diagnostics\n"
         "# obligations and failures list the conditions in the order\n"
         "#   side_conditions, abstraction_refinement, base_case, "
         "conclusion,\n"
         "#   inductive_step, left_movers, cooperation\n";
  for (const auto &[Key, A] : Answers)
    Out << Key << " | " << A.str() << "\n";
  return static_cast<bool>(Out);
}
