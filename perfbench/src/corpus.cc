#include "corpus.h"

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "lineage/grounder.h"
#include "logic/parser.h"

namespace perfbench {
namespace {

using gmc::ConstantId;
using gmc::Query;
using gmc::Rational;
using gmc::SymbolId;
using gmc::SymbolKind;
using gmc::Tid;
using gmc::TupleKey;

using Rng = std::mt19937_64;

int Uniform(Rng* rng, int lo, int hi) {  // inclusive
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

// The weights a TID of each class draws from. Every TID of a class with n
// tuples uses the same multiset (the list repeated to length n, or for
// GFOMC fixed shares of 1 and 0), shuffled over the tuples.
std::vector<Rational> WeightMultiset(WeightClass weights, size_t n) {
  static const std::vector<Rational> kDyadic = {
      Rational(1, 4),  Rational(3, 8),  Rational(5, 16), Rational(1, 2),
      Rational(9, 16), Rational(3, 4),  Rational(7, 8),  Rational(13, 16)};
  static const std::vector<Rational> kRationalWeights = {
      Rational(1, 3), Rational(2, 5), Rational(3, 7), Rational(4, 9),
      Rational(2, 3), Rational(5, 6), Rational(6, 7), Rational(7, 10)};
  static const std::vector<Rational> kHighWeights = {
      Rational(9, 10),  Rational(15, 16), Rational(19, 20), Rational(24, 25),
      Rational(29, 30), Rational(31, 32), Rational(39, 40), Rational(14, 15)};
  std::vector<Rational> out;
  if (weights == WeightClass::kGfomc) {
    // Mostly uncertain tuples; the certain ones fold away in grounding, so
    // every pattern grounds to its own structure.
    const size_t ones = (n * 17 + 50) / 100;
    const size_t zeros = (n * 3 + 50) / 100;
    out.assign(n, Rational::Half());
    std::fill(out.begin(), out.begin() + ones, Rational::One());
    std::fill(out.begin() + ones, out.begin() + ones + zeros, Rational::Zero());
    return out;
  }
  const std::vector<Rational>& values =
      weights == WeightClass::kDyadic     ? kDyadic
      : weights == WeightClass::kRational ? kRationalWeights
                                          : kHighWeights;
  for (size_t i = 0; i < n; ++i) out.push_back(values[i % values.size()]);
  return out;
}

// Calls fn(key) for every ground tuple of `query`'s vocabulary over `tid`'s
// domain.
template <typename Fn>
void ForEachTuple(const Query& query, int num_left, int num_right, Fn fn) {
  const gmc::Vocabulary& vocab = query.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    switch (vocab.kind(s)) {
      case SymbolKind::kUnaryLeft:
        for (ConstantId u = 0; u < num_left; ++u) fn(TupleKey{s, u, -1});
        break;
      case SymbolKind::kUnaryRight:
        for (ConstantId v = 0; v < num_right; ++v) fn(TupleKey{s, -1, v});
        break;
      case SymbolKind::kBinary:
        for (ConstantId u = 0; u < num_left; ++u) {
          for (ConstantId v = 0; v < num_right; ++v) fn(TupleKey{s, u, v});
        }
        break;
    }
  }
}

// A TID with every ground tuple explicit: `weights`' multiset, shuffled.
Tid RandomTid(const Query& query, int num_left, int num_right,
              WeightClass weights, Rng* rng) {
  std::vector<TupleKey> keys;
  ForEachTuple(query, num_left, num_right,
               [&](const TupleKey& key) { keys.push_back(key); });
  std::vector<Rational> values = WeightMultiset(weights, keys.size());
  for (size_t i = values.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(values[i - 1], values[Uniform(rng, 0, static_cast<int>(i) - 1)]);
  }
  Tid tid(query.vocab_ptr(), num_left, num_right, Rational::Half());
  for (size_t i = 0; i < keys.size(); ++i) tid.Set(keys[i], values[i]);
  return tid;
}

// A seeded relabeling of a domain's constants. Relabeling maps an
// instance to an isomorphic one: the same work for the program, with
// different wire bytes, lineage variable order, cache and plan keys and
// sampler streams.
struct Relabeling {
  std::vector<ConstantId> left, right;
};

std::vector<ConstantId> Permutation(int n, Rng* rng) {
  std::vector<ConstantId> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = n; i > 1; --i) {
    std::swap(perm[static_cast<size_t>(i - 1)],
              perm[static_cast<size_t>(Uniform(rng, 0, i - 1))]);
  }
  return perm;
}

Relabeling DrawRelabeling(const Tid& tid, Rng* rng) {
  return {Permutation(tid.num_left(), rng), Permutation(tid.num_right(), rng)};
}

Tid Relabel(const Tid& tid, const Relabeling& map) {
  Tid out(tid.vocab_ptr(), tid.num_left(), tid.num_right(),
          tid.default_probability());
  for (const auto& [key, p] : tid.explicit_tuples()) {
    TupleKey moved = key;
    if (key.left >= 0) moved.left = map.left[static_cast<size_t>(key.left)];
    if (key.right >= 0) moved.right = map.right[static_cast<size_t>(key.right)];
    out.Set(moved, p);
  }
  return out;
}

// The instances of every workload are drawn from this fixed seed; --seed
// only relabels them (see Relabeling), so every seed asks for the same
// work up to isomorphism and runs with different seeds stay comparable.
constexpr uint64_t kInstanceSeed = 0x5eed0f1257a9c3b1ull;

// "<num_left> <num_right> <default> Name(u)=p Name(u,v)=p ..." in a fixed
// tuple order, so one TID always encodes to the same bytes.
std::string EncodeTid(const Query& query, const Tid& tid) {
  std::ostringstream out;
  out << tid.num_left() << ' ' << tid.num_right() << ' '
      << tid.default_probability().ToString();
  const gmc::Vocabulary& vocab = query.vocab();
  ForEachTuple(query, tid.num_left(), tid.num_right(), [&](const TupleKey& key) {
    const auto it = tid.explicit_tuples().find(key);
    if (it == tid.explicit_tuples().end()) return;
    out << ' ' << vocab.name(key.symbol) << '(';
    if (key.left >= 0) out << key.left;
    if (key.left >= 0 && key.right >= 0) out << ',';
    if (key.right >= 0) out << key.right;
    out << ")=" << it->second.ToString();
  });
  return out.str();
}

// W = sum over the grounded clauses of prod (1 - p_v): the Karp-Luby union
// weight of the failure events. With W <= 1 the sampler's estimate
// 1 - W * (hit fraction) cannot leave [0, 1] on any seed.
double FailureWeight(const Query& query, const Tid& tid) {
  const gmc::Lineage lineage = gmc::Ground(query, tid);
  double total = 0.0;
  for (const auto& clause : lineage.cnf.clauses) {
    double weight = 1.0;
    for (int v : clause) weight *= 1.0 - lineage.probabilities[v].ToDouble();
    total += weight;
  }
  return total;
}

}  // namespace

const char* WeightClassName(WeightClass weights) {
  switch (weights) {
    case WeightClass::kGfomc:
      return "gfomc";
    case WeightClass::kDyadic:
      return "dyadic";
    case WeightClass::kRational:
      return "rational";
    case WeightClass::kHigh:
      return "high";
  }
  return "?";
}

Tid MirrorH1(const Query& h1, const Tid& tid) {
  const gmc::Vocabulary& vocab = h1.vocab();
  const SymbolId r = vocab.Find("R");
  const SymbolId s = vocab.Find("S");
  const SymbolId t = vocab.Find("T");
  Tid mirror(h1.vocab_ptr(), tid.num_right(), tid.num_left(),
             tid.default_probability());
  for (const auto& [key, p] : tid.explicit_tuples()) {
    if (key.symbol == r) {
      mirror.SetUnaryRight(t, key.left, p);
    } else if (key.symbol == t) {
      mirror.SetUnaryLeft(r, key.right, p);
    } else if (key.symbol == s) {
      mirror.SetBinary(s, key.right, key.left, p);
    }
  }
  return mirror;
}

int HalfTuples(const Query& query, const Tid& tid) {
  int count = 0;
  ForEachTuple(query, tid.num_left(), tid.num_right(), [&](const TupleKey& key) {
    if (tid.Probability(key) == Rational::Half()) ++count;
  });
  return count;
}

WireWorkload MakeExactWire(uint64_t seed) {
  WireWorkload workload{kH1, gmc::ParseQueryOrDie(kH1), {}, 8};
  Rng instances(kInstanceSeed + 1);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const Query& h1 = workload.query;
  const WeightClass kClasses[] = {WeightClass::kGfomc, WeightClass::kDyadic,
                                  WeightClass::kRational};
  const std::pair<int, int> kShapes[] = {{3, 3}, {3, 8}, {8, 3}, {4, 6},
                                         {6, 4}, {5, 5}, {7, 7}, {8, 8}};
  constexpr int kBasesPerCell = 6;
  for (int copy = 0; copy < kBasesPerCell; ++copy) {
  for (const auto& [left, right] : kShapes) {
    for (WeightClass weights : kClasses) {
      const Tid drawn = RandomTid(h1, left, right, weights, &instances);
      const Tid base = Relabel(drawn, DrawRelabeling(drawn, &rng));
      const Tid mirror = MirrorH1(h1, base);
      const int eval_index = static_cast<int>(workload.cases.size());
      workload.cases.push_back(
          {Verb::kEval, base, weights, -1, false, EncodeTid(h1, base)});
      workload.cases.push_back({Verb::kExact, mirror, weights, eval_index,
                                false, "exact 1/2 1/2 " + EncodeTid(h1, mirror)});
      workload.cases.push_back({Verb::kInterval, base, weights, -1, false,
                                "interval 1/2 1/2 " + EncodeTid(h1, base)});
    }
  }
  }
  return workload;
}

WireWorkload MakeSampledWire(uint64_t seed) {
  WireWorkload workload{kC9, gmc::ParseQueryOrDie(kC9), {}, 2};
  Rng instances(kInstanceSeed + 2);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  const Query& c9 = workload.query;
  const std::string mode =
      std::string("sample ") + kSampleEpsilon + " " + kSampleDelta + " ";
  // Shapes whose exact reference the recursive engine computes in under a
  // second, and whose sampled answer costs tens of milliseconds.
  const std::pair<int, int> kShapes[] = {{2, 5}, {2, 6}, {6, 2}, {3, 3},
                                         {3, 4}, {4, 3}, {3, 5}, {5, 3},
                                         {4, 4}, {2, 7}};
  for (const auto& [left, right] : kShapes) {
    // Draw until the union weight is at most 1 (see FailureWeight): the
    // seeded requests then can never hit the out-of-range fault, so the
    // failed share of every run is exactly that of the fixed requests below.
    Tid drawn = RandomTid(c9, left, right, WeightClass::kHigh, &instances);
    while (FailureWeight(c9, drawn) > 0.95) {
      drawn = RandomTid(c9, left, right, WeightClass::kHigh, &instances);
    }
    const Tid tid = Relabel(drawn, DrawRelabeling(drawn, &rng));
    workload.cases.push_back({Verb::kSample, tid, WeightClass::kHigh, -1,
                              false, mode + EncodeTid(c9, tid)});
  }
  // The known fault: fixed inputs (independent of the seed) whose estimate
  // is negative at this (epsilon, delta) under the server's default sample
  // seed, at every thread count.
  const struct {
    int left, right;
    Rational p;
  } kFaults[] = {{3, 4, Rational(3, 7)}, {3, 5, Rational(3, 7)},
                 {4, 3, Rational(1, 2)}};
  for (const auto& fault : kFaults) {
    Tid tid(c9.vocab_ptr(), fault.left, fault.right, fault.p);
    workload.cases.push_back({Verb::kSample, tid, WeightClass::kRational, -1,
                              true, mode + EncodeTid(c9, tid)});
  }
  return workload;
}

ColdCorpus MakeColdCorpus(uint64_t seed) {
  ColdCorpus corpus;
  for (const char* text : {kH1, kC9, kRst, kSafeOne, kSafeTwo}) {
    corpus.queries.push_back(gmc::ParseQueryOrDie(text));
  }
  Rng instances(kInstanceSeed + 3);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  // Fixed shapes per query (C9's stay small: its compile cost grows
  // fastest).
  const struct {
    int query;
    std::vector<std::pair<int, int>> shapes;
  } kPlans[] = {
      {0, {{4, 8}, {8, 4}, {6, 6}, {5, 7}, {7, 5}, {8, 8}}},
      {1, {{2, 3}, {3, 2}, {3, 3}}},
      {2, {{3, 6}, {6, 3}, {4, 5}, {5, 4}, {6, 6}}},
      {3, {{3, 8}, {8, 3}, {5, 5}, {6, 6}}},
      {4, {{3, 8}, {8, 3}, {5, 5}, {6, 6}}},
  };
  const WeightClass kClasses[] = {WeightClass::kGfomc, WeightClass::kDyadic,
                                  WeightClass::kRational};
  std::set<uint64_t> structures;
  for (const auto& plan : kPlans) {
    const Query& query = corpus.queries[plan.query];
    for (size_t i = 0; i < plan.shapes.size(); ++i) {
      const auto [left, right] = plan.shapes[i];
      const WeightClass weights = kClasses[i % 3];
      ColdOp op{plan.query, {}, weights};
      const Relabeling map =
          DrawRelabeling(Tid(query.vocab_ptr(), left, right), &rng);
      // Redraw a {0, 1/2, 1} pattern that grounds to a trivial lineage or to
      // a structure another op already compiles.
      while (true) {
        op.tids.assign(
            1, Relabel(RandomTid(query, left, right, weights, &instances), map));
        const gmc::Lineage lineage = gmc::Ground(query, op.tids.front());
        if (!lineage.is_false && !lineage.cnf.clauses.empty() &&
            structures.insert(lineage.cnf.Hash64()).second) {
          break;
        }
      }
      // Non-GFOMC ops answer three weight vectors over the one structure.
      if (weights != WeightClass::kGfomc) {
        for (int k = 0; k < 2; ++k) {
          op.tids.push_back(
              Relabel(RandomTid(query, left, right, weights, &instances), map));
        }
      }
      corpus.ops.push_back(std::move(op));
    }
  }
  return corpus;
}

}  // namespace perfbench
