//===- MiniJson.cpp - Minimal JSON reader for the benchmark ---------------===//

#include "MiniJson.h"

#include <cstdlib>

using namespace vb;

const JsonValue *JsonValue::get(const std::string &Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

double JsonValue::num(const std::string &Key, double Default) const {
  const JsonValue *V = get(Key);
  return V && V->K == Kind::Number ? V->Number : Default;
}

namespace {

class Reader {
public:
  explicit Reader(const std::string &Text) : Text(Text) {}

  bool document(JsonValue &Out, std::string &Error) {
    if (!value(Out, 0)) {
      Error = Why + " at offset " + std::to_string(Pos);
      return false;
    }
    skipSpace();
    if (Pos != Text.size()) {
      Error = "trailing characters at offset " + std::to_string(Pos);
      return false;
    }
    return true;
  }

private:
  static constexpr int MaxDepth = 64;

  void skipSpace() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\n' ||
                                 Text[Pos] == '\t' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool fail(const char *Message) {
    Why = Message;
    return false;
  }

  bool literal(const char *Word) {
    for (const char *C = Word; *C; ++C, ++Pos)
      if (Pos >= Text.size() || Text[Pos] != *C)
        return fail("bad literal");
    return true;
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        // Code points are kept only for ASCII; the benchmark never reads
        // a non-ASCII string's content.
        if (Pos + 4 > Text.size())
          return fail("short \\u escape");
        unsigned long Code = std::strtoul(Text.substr(Pos, 4).c_str(),
                                          nullptr, 16);
        Out += Code < 0x80 ? static_cast<char>(Code) : '?';
        Pos += 4;
        break;
      }
      default: Out += E; break;
      }
    }
    if (Pos >= Text.size())
      return fail("unterminated string");
    ++Pos;
    return true;
  }

  bool value(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end");
    char C = Text[Pos];
    if (C == '{') {
      Out.K = JsonValue::Kind::Object;
      ++Pos;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != '"')
          return fail("expected key");
        std::string Key;
        if (!string(Key))
          return false;
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Out.Members.emplace_back(std::move(Key), JsonValue());
        if (!value(Out.Members.back().second, Depth + 1))
          return false;
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      Out.K = JsonValue::Kind::Array;
      ++Pos;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Out.Items.emplace_back();
        if (!value(Out.Items.back(), Depth + 1))
          return false;
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return string(Out.Str);
    }
    if (C == 't' || C == 'f') {
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = C == 't';
      return literal(Out.Bool ? "true" : "false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    }
    const char *Begin = Text.c_str() + Pos;
    char *End = nullptr;
    Out.K = JsonValue::Kind::Number;
    Out.Number = std::strtod(Begin, &End);
    if (End == Begin)
      return fail("expected a value");
    Pos += static_cast<size_t>(End - Begin);
    return true;
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string Why;
};

} // namespace

bool vb::parseJson(const std::string &Text, JsonValue &Out,
                   std::string &Error) {
  Out = JsonValue();
  return Reader(Text).document(Out, Error);
}
