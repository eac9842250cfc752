//===- MiniJson.h - Minimal JSON reader for the benchmark --------*- C++ -*-===//
///
/// \file
/// Reads the schema-versioned verdict reports (`isq-verify --format json`,
/// and the ReportJson field of serve verdicts) back into a value tree. The
/// product only writes JSON, so the benchmark carries this small reader
/// of its own.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_MINIJSON_H
#define VERDICTBENCH_MINIJSON_H

#include <string>
#include <utility>
#include <vector>

namespace vb {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  /// Member \p Key of an object, or null when absent.
  const JsonValue *get(const std::string &Key) const;
  /// Numeric member \p Key, or \p Default when absent or not a number.
  double num(const std::string &Key, double Default = 0) const;
};

/// Parses \p Text. Returns false with \p Error set on malformed input.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

} // namespace vb

#endif // VERDICTBENCH_MINIJSON_H
