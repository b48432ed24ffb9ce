// Independent answer checks. Every reference is computed apart from the
// path under test: brute-force enumeration on small lineages, the recursive
// (circuit-free) WMC engine on larger ones. The other checks are properties
// every correct answer has. SelfTest feeds each check a known-wrong answer
// and confirms it is rejected.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "logic/query.h"
#include "prob/tid.h"
#include "util/rational.h"

namespace perfbench {

// Lineages up to this many variables are enumerated exhaustively.
inline constexpr int kBruteForceMaxVars = 20;

// Pr(query) on `tid` by brute force (<= kBruteForceMaxVars lineage
// variables) or by the recursive WmcEngine, which builds no circuit.
gmc::Rational ReferenceProbability(const gmc::Query& query,
                                   const gmc::Tid& tid);

// Strict parsers for reply tokens ("a/b", "a", or a decimal double).
std::optional<gmc::Rational> ParseRational(const std::string& token);
std::optional<double> ParseDouble(const std::string& token);
// The exact value of a double.
gmc::Rational ExactDouble(double value);

// Each check returns "" when the answer passes, else why it fails.
std::string CheckExact(const gmc::Rational& answer,
                       const gmc::Rational& reference);
// A {0, 1/2, 1} TID with k tuples at 1/2: Pr * 2^k is an integer in
// [0, 2^k].
std::string CheckModelCount(const gmc::Rational& answer, int half_tuples);
// H1 answers on a TID and on its mirror image agree.
std::string CheckMirror(const gmc::Rational& answer,
                        const gmc::Rational& mirror_answer);
std::string CheckInterval(double lo, double hi, const gmc::Rational& reference);
// A sampled estimate lies in [0, 1].
std::string CheckInRange(double estimate);
// The estimate lies within its achieved epsilon of the reference; a miss
// is allowed (at rate delta), so this only reports whether it missed.
bool SampleMissed(double estimate, double epsilon,
                  const gmc::Rational& reference);
// Misses out of `n` estimates stay under delta*n + 5 sqrt(n delta (1-delta)).
std::string CheckMissCount(int misses, int n, double delta);

// Runs every check on a known-wrong answer (and a known-right one);
// returns "" when each check rejects the wrong one and accepts the right.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
