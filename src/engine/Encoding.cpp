//===- engine/Encoding.cpp - Compact state encodings -------------------------===//

#include "engine/Encoding.h"

#include <cassert>

using namespace isq;
using namespace isq::engine;

void engine::putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

uint64_t engine::getVarint(const char *&P, [[maybe_unused]] const char *End) {
  uint64_t V = 0;
  unsigned Shift = 0;
  while (true) {
    assert(P != End && "truncated varint");
    uint8_t B = static_cast<uint8_t>(*P++);
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return V;
    Shift += 7;
    assert(Shift < 64 && "oversized varint");
  }
}

static uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

static int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

void engine::encodeValue(std::string &Out, const Value &V) {
  Out.push_back(static_cast<char>(V.kind()));
  switch (V.kind()) {
  case ValueKind::Unit:
    return;
  case ValueKind::Bool:
    Out.push_back(V.getBool() ? 1 : 0);
    return;
  case ValueKind::Int:
    putVarint(Out, zigzag(V.getInt()));
    return;
  case ValueKind::Tuple:
  case ValueKind::Set:
  case ValueKind::Seq: {
    const std::vector<Value> &Elems = V.elems();
    putVarint(Out, Elems.size());
    for (const Value &E : Elems)
      encodeValue(Out, E);
    return;
  }
  case ValueKind::Option:
    if (V.isNone()) {
      Out.push_back(0);
    } else {
      Out.push_back(1);
      encodeValue(Out, V.getSome());
    }
    return;
  case ValueKind::Bag: {
    const auto &Entries = V.bagEntries();
    putVarint(Out, Entries.size());
    for (const auto &[Elem, Count] : Entries) {
      encodeValue(Out, Elem);
      putVarint(Out, static_cast<uint64_t>(Count.getInt()));
    }
    return;
  }
  case ValueKind::Map: {
    const auto &Entries = V.mapEntries();
    putVarint(Out, Entries.size());
    for (const auto &[K, Val] : Entries) {
      encodeValue(Out, K);
      encodeValue(Out, Val);
    }
    return;
  }
  }
  assert(false && "unhandled value kind");
}

Value engine::decodeValue(const char *&P, const char *End) {
  assert(P != End && "truncated value");
  ValueKind Kind = static_cast<ValueKind>(static_cast<uint8_t>(*P++));
  switch (Kind) {
  case ValueKind::Unit:
    return Value::unit();
  case ValueKind::Bool: {
    assert(P != End && "truncated bool");
    return Value::boolean(*P++ != 0);
  }
  case ValueKind::Int:
    return Value::integer(unzigzag(getVarint(P, End)));
  case ValueKind::Tuple:
  case ValueKind::Set:
  case ValueKind::Seq: {
    uint64_t N = getVarint(P, End);
    std::vector<Value> Elems;
    Elems.reserve(N);
    for (uint64_t I = 0; I < N; ++I)
      Elems.push_back(decodeValue(P, End));
    if (Kind == ValueKind::Tuple)
      return Value::tuple(std::move(Elems));
    if (Kind == ValueKind::Set)
      return Value::set(std::move(Elems));
    return Value::seq(std::move(Elems));
  }
  case ValueKind::Option: {
    assert(P != End && "truncated option");
    if (*P++ == 0)
      return Value::none();
    return Value::some(decodeValue(P, End));
  }
  case ValueKind::Bag: {
    uint64_t N = getVarint(P, End);
    Value Out = Value::bag({});
    for (uint64_t I = 0; I < N; ++I) {
      Value Elem = decodeValue(P, End);
      uint64_t Count = getVarint(P, End);
      Out = Out.bagInsert(Elem, Count);
    }
    return Out;
  }
  case ValueKind::Map: {
    uint64_t N = getVarint(P, End);
    std::vector<std::pair<Value, Value>> Pairs;
    Pairs.reserve(N);
    for (uint64_t I = 0; I < N; ++I) {
      Value K = decodeValue(P, End);
      Value V = decodeValue(P, End);
      Pairs.emplace_back(std::move(K), std::move(V));
    }
    return Value::map(std::move(Pairs));
  }
  }
  assert(false && "unhandled value kind");
  return Value::unit();
}

std::string engine::encodeStore(const Store &S) {
  std::string Out;
  putVarint(Out, S.size());
  uint32_t Prev = 0;
  for (const auto &[Sym, Val] : S.entries()) {
    putVarint(Out, Sym.index() - Prev);
    Prev = Sym.index();
    encodeValue(Out, Val);
  }
  return Out;
}

Store engine::decodeStore(const std::string &Bytes) {
  const char *P = Bytes.data();
  const char *End = P + Bytes.size();
  uint64_t N = getVarint(P, End);
  std::vector<std::pair<Symbol, Value>> Vars;
  Vars.reserve(N);
  uint32_t Prev = 0;
  for (uint64_t I = 0; I < N; ++I) {
    Prev += static_cast<uint32_t>(getVarint(P, End));
    Value V = decodeValue(P, End);
    Vars.emplace_back(Symbol::fromIndex(Prev), std::move(V));
  }
  assert(P == End && "trailing bytes in store encoding");
  return Store::make(std::move(Vars));
}

std::string
engine::encodePaVec(const std::vector<std::pair<uint32_t, uint64_t>> &Vec) {
  std::string Out;
  putVarint(Out, Vec.size());
  uint32_t Prev = 0;
  for (const auto &[Id, Count] : Vec) {
    putVarint(Out, Id - Prev);
    Prev = Id;
    putVarint(Out, Count);
  }
  return Out;
}

std::vector<std::pair<uint32_t, uint64_t>>
engine::decodePaVec(const std::string &Bytes) {
  const char *P = Bytes.data();
  const char *End = P + Bytes.size();
  uint64_t N = getVarint(P, End);
  std::vector<std::pair<uint32_t, uint64_t>> Vec;
  Vec.reserve(N);
  uint32_t Prev = 0;
  for (uint64_t I = 0; I < N; ++I) {
    Prev += static_cast<uint32_t>(getVarint(P, End));
    Vec.emplace_back(Prev, getVarint(P, End));
  }
  assert(P == End && "trailing bytes in PA-bag encoding");
  return Vec;
}
