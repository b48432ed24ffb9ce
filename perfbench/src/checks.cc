#include "checks.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "corpus.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace perfbench {

using gmc::Rational;

Rational ReferenceProbability(const gmc::Query& query, const gmc::Tid& tid) {
  const gmc::Lineage lineage = gmc::Ground(query, tid);
  if (lineage.cnf.num_vars <= kBruteForceMaxVars) {
    return gmc::BruteForceQueryProbability(query, tid);
  }
  return gmc::WmcEngine().Probability(lineage);
}

std::optional<Rational> ParseRational(const std::string& token) {
  const size_t slash = token.find('/');
  auto digits = [](const std::string& text, bool allow_sign) {
    size_t start = allow_sign && !text.empty() && text[0] == '-' ? 1 : 0;
    if (start >= text.size() || text.size() > 4096) return false;
    for (size_t i = start; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
    }
    return true;
  };
  if (slash == std::string::npos) {
    if (!digits(token, true)) return std::nullopt;
  } else {
    const std::string den = token.substr(slash + 1);
    if (!digits(token.substr(0, slash), true) || !digits(den, false) ||
        den.find_first_not_of('0') == std::string::npos) {
      return std::nullopt;
    }
  }
  return Rational::FromString(token);
}

std::optional<double> ParseDouble(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (errno != 0 || end != token.c_str() + token.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

Rational ExactDouble(double value) {
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = m * 2^e
  const auto scaled = static_cast<int64_t>(std::ldexp(mantissa, 53));
  const int shift = exponent - 53;
  if (shift >= 0) return Rational::FromBigInt(gmc::BigInt(scaled).ShiftLeft(shift));
  return Rational::Dyadic(gmc::BigInt(scaled), static_cast<uint64_t>(-shift));
}

std::string CheckExact(const Rational& answer, const Rational& reference) {
  if (answer == reference) return "";
  return "answer " + answer.ToString() + " != reference " +
         reference.ToString();
}

std::string CheckModelCount(const Rational& answer, int half_tuples) {
  const Rational scale =
      Rational::FromBigInt(gmc::BigInt(1).ShiftLeft(half_tuples));
  const Rational count = answer * scale;
  if (!count.IsInteger() || count.sign() < 0 || count > scale) {
    return "Pr*2^" + std::to_string(half_tuples) + " = " + count.ToString() +
           " is not a model count";
  }
  return "";
}

std::string CheckMirror(const Rational& answer, const Rational& mirror_answer) {
  if (answer == mirror_answer) return "";
  return "mirror image answered " + mirror_answer.ToString() + " vs " +
         answer.ToString();
}

std::string CheckInterval(double lo, double hi, const Rational& reference) {
  if (ExactDouble(lo) <= reference && reference <= ExactDouble(hi)) return "";
  return "interval [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "] misses " + reference.ToString();
}

std::string CheckInRange(double estimate) {
  if (estimate >= 0.0 && estimate <= 1.0) return "";
  return "estimate " + std::to_string(estimate) + " outside [0, 1]";
}

bool SampleMissed(double estimate, double epsilon, const Rational& reference) {
  return std::abs(estimate - reference.ToDouble()) > epsilon;
}

std::string CheckMissCount(int misses, int n, double delta) {
  const double bound = delta * n + 5.0 * std::sqrt(n * delta * (1.0 - delta));
  if (misses <= static_cast<int>(bound)) return "";
  return std::to_string(misses) + " of " + std::to_string(n) +
         " estimates missed their epsilon (bound " + std::to_string(bound) +
         ")";
}

std::string SelfTest() {
  std::string failures;
  auto expect = [&failures](bool rejected_wrong, bool accepted_right,
                            const char* name) {
    if (!rejected_wrong) failures += std::string(name) + " accepted a wrong answer; ";
    if (!accepted_right) failures += std::string(name) + " rejected a right answer; ";
  };

  const gmc::Query h1 = gmc::ParseQueryOrDie(kH1);
  // A 3 x 3 TID: small enough for brute force, large enough for recursion.
  gmc::Tid tid(h1.vocab_ptr(), 3, 3, Rational::Half());
  tid.SetBinary(h1.vocab().Find("S"), 0, 1, Rational(3, 7));
  tid.SetUnaryLeft(h1.vocab().Find("R"), 2, Rational(5, 8));
  const Rational brute = gmc::BruteForceQueryProbability(h1, tid);
  const Rational recursive = gmc::WmcEngine().Probability(gmc::Ground(h1, tid));
  const Rational wrong = brute + Rational(1, 1000);
  expect(!CheckExact(wrong, brute).empty(), CheckExact(recursive, brute).empty(),
         "exact (brute force vs recursive)");

  gmc::Tid gfomc(h1.vocab_ptr(), 3, 3, Rational::Half());
  gfomc.SetUnaryLeft(h1.vocab().Find("R"), 0, Rational::One());
  const int k = HalfTuples(h1, gfomc);
  const Rational count_ref = ReferenceProbability(h1, gfomc);
  expect(!CheckModelCount(count_ref + Rational(1, 3), k).empty(),
         CheckModelCount(count_ref, k).empty(), "model count");

  const gmc::Tid mirror = MirrorH1(h1, tid);
  const Rational mirror_ref = ReferenceProbability(h1, mirror);
  expect(!CheckMirror(brute, wrong).empty(), CheckMirror(brute, mirror_ref).empty(),
         "mirror symmetry");

  const double mid = brute.ToDouble();
  expect(!CheckInterval(mid + 1e-3, mid + 2e-3, brute).empty(),
         CheckInterval(mid - 1e-9, mid + 1e-9, brute).empty(), "interval");

  expect(!CheckInRange(-0.01).empty() && !CheckInRange(1.01).empty(),
         CheckInRange(0.5).empty(), "estimate range");
  expect(SampleMissed(mid + 0.2, 0.1, brute), !SampleMissed(mid + 0.05, 0.1, brute),
         "sampled epsilon");
  expect(!CheckMissCount(10, 10, 0.05).empty(), CheckMissCount(1, 10, 0.05).empty(),
         "binomial miss bound");
  return failures;
}

}  // namespace perfbench
