//===- engine/Encoding.h - Compact state encodings --------------*- C++ -*-===//
///
/// \file
/// Canonical delta/varint byte encodings for the compact state store
/// (--engine compress=true). A value, store or PA-bag has exactly one
/// encoding — values are canonical (sorted sets/bags/maps), stores are
/// sorted by symbol, PA-bags by PaId — so byte equality coincides with
/// value equality and the arena can hash-cons over the encoded form
/// directly. Integers are zigzag varints; sorted key sequences (symbol
/// indices, PaIds) are delta-encoded, which keeps dense id ranges at one
/// byte per key.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_ENCODING_H
#define ISQ_ENGINE_ENCODING_H

#include "semantics/Configuration.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace isq {
namespace engine {

void putVarint(std::string &Out, uint64_t V);
/// Reads one varint, advancing \p P. Asserts on truncation.
uint64_t getVarint(const char *&P, const char *End);

void encodeValue(std::string &Out, const Value &V);
Value decodeValue(const char *&P, const char *End);

/// Encodes a store: entry count, then per entry a delta-encoded symbol
/// index and the value.
std::string encodeStore(const Store &S);
Store decodeStore(const std::string &Bytes);

/// Encodes a canonical (PaId, count) vector: entry count, then per entry
/// a delta-encoded PaId and the multiplicity.
std::string encodePaVec(const std::vector<std::pair<uint32_t, uint64_t>> &Vec);
std::vector<std::pair<uint32_t, uint64_t>>
decodePaVec(const std::string &Bytes);

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_ENCODING_H
