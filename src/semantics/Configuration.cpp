//===- semantics/Configuration.cpp - Program configurations ----------------===//

#include "semantics/Configuration.h"

#include "support/Hashing.h"

using namespace isq;

namespace isq {
bool operator<(const Configuration &A, const Configuration &B) {
  if (A.IsFailure != B.IsFailure)
    return B.IsFailure; // non-failure sorts before failure
  if (A.IsFailure)
    return false;
  if (A.Global != B.Global)
    return A.Global < B.Global;
  return A.Pas < B.Pas;
}
} // namespace isq

size_t Configuration::hash() const {
  if (IsFailure)
    return 0xdeadULL;
  size_t Seed = Global.hash();
  hashCombine(Seed, Pas.hash());
  return Seed;
}

std::string Configuration::str() const {
  if (IsFailure)
    return "FAIL";
  std::string Out = "(";
  Out += Global.str();
  Out += ", ";
  Out += toString(Pas);
  return Out + ")";
}
