//===- Jobs.h - Corpus, seeded job streams and known answers -----*- C++ -*-===//
///
/// \file
/// The inputs of the three workloads and the answers they must produce.
///
/// The corpus is the repository's ASL examples, the import fixtures and the
/// malformed sources of tests/asl_errors. A workload turns a seed into a
/// list of jobs; the same seed always yields the same list, and the
/// product only ever sees those generated jobs. Every job names the
/// known answer it must reproduce: an exit code fixed by construction
/// (sketch 0, broken sketch 1, malformed source 2) plus per-condition
/// obligation and configuration counts pinned as golden data in
/// known_answers.txt.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_JOBS_H
#define VERDICTBENCH_JOBS_H

#include "driver/VerifyDriver.h"
#include "serve/Wire.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vb {

/// The repository files a workload reads, keyed by root-relative path.
struct Corpus {
  std::map<std::string, std::string> Files;
};

/// Reads every corpus file under \p Root. Returns false with \p Error set
/// when one is missing.
bool readCorpus(const std::string &Root, Corpus &Out, std::string &Error);

/// One verification request and the answer it must produce.
struct Job {
  /// Known-answer key, e.g. "paxos R=2 N=3 sketch".
  std::string Key;
  /// "sketch", "broken" or "malformed".
  std::string Kind;
  /// Exit code fixed by construction of the job kind.
  int ExpectedExit = 0;
  /// serve-edits: "base", "comment", "weight", "peel" or "resubmit".
  std::string Edit;
  /// Root-relative path of the main source (imports resolve against it).
  std::string Path;
  std::string Source;
  std::map<std::string, int64_t> Consts;
  std::vector<std::string> Eliminate;
  bool ArgMajor = false;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;

  /// Driver options for an in-process verifyModule call.
  isq::driver::VerifyOptions options(const std::string &Root,
                                     unsigned Threads) const;
  /// Wire submission (sources travel without a path, so without imports).
  isq::serve::SubmitRequest request(uint64_t RequestId) const;
  /// One-line rendering for stream dumps.
  std::string str() const;
};

/// Workload sizes. Full is what the benchmark measures; Smoke is the
/// minimal size the benchmark's own tests run.
enum class Size { Full, Smoke };

/// paxos-deep: the single Paxos R=2 N=3 verification (R=2 N=2 at Smoke).
std::vector<Job> paxosDeepJobs(const Corpus &C, uint64_t Seed, Size S);
/// corpus-mix: one pass of the sequential stream over the whole corpus.
std::vector<Job> corpusMixJobs(const Corpus &C, uint64_t Seed, Size S);
/// serve-edits: one edit session per client, each on its own instance.
std::vector<std::vector<Job>> serveSessions(const Corpus &C, uint64_t Seed,
                                            unsigned Clients, Size S);
/// Every distinct known-answer key any workload can produce, once.
std::vector<Job> answerCatalogue(const Corpus &C);

/// The pinned outcome of one job.
constexpr size_t NumConditions = 7;
extern const char *const ConditionNames[NumConditions];
struct Answer {
  int Exit = -1;
  std::array<uint64_t, NumConditions> Obligations{};
  std::array<uint64_t, NumConditions> Failures{};
  uint64_t Configs = 0;
  uint64_t ConfigsP = 0;
  uint64_t ConfigsPPrime = 0;
  uint64_t Diagnostics = 0;

  bool operator==(const Answer &) const = default;
  std::string str() const;
};

/// known_answers.txt: one "<key> | <Answer::str()>" line per key.
bool readAnswers(const std::string &Path, std::map<std::string, Answer> &Out,
                 std::string &Error);
bool writeAnswers(const std::string &Path,
                  const std::map<std::string, Answer> &Answers);

} // namespace vb

#endif // VERDICTBENCH_JOBS_H
