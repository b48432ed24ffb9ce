// Seeded workload inputs. Each workload is a fixed population of instances
// (shapes, weight arrangements); --seed draws a relabeling of every
// instance's domain constants, so the same seed gives the same inputs and
// every seed asks for the same work up to isomorphism. The program under
// test only ever sees the generated requests.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "logic/query.h"
#include "prob/tid.h"

namespace perfbench {

// The paper's canonical unsafe Type-I query.
inline constexpr char kH1[] = "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))";
// An unsafe Type-II query (the sampler's calibration query in the tests).
inline constexpr char kC9[] =
    "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
    "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))";
// The length-2 unsafe chain R - S1 - S2 - T.
inline constexpr char kRst[] =
    "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S1(x,y) | S2(x,y)) & "
    "Ax Ay (S2(x,y) | T(y))";
// Two safe queries (PTIME lifted plans).
inline constexpr char kSafeOne[] = "Ax Ay (R(x) | S(x,y))";
inline constexpr char kSafeTwo[] =
    "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S2(x,y) | T(y))";

// The fixed (epsilon, delta) of every sampled_wire request.
inline constexpr char kSampleEpsilon[] = "1/2";
inline constexpr char kSampleDelta[] = "1/20";

// Numeric class of a TID's tuple probabilities, which selects the exact
// kernel: {0, 1/2, 1} (the paper's GFOMC), dyadic, or general rationals.
enum class WeightClass { kGfomc, kDyadic, kRational, kHigh };
const char* WeightClassName(WeightClass weights);

// How a wire request asks for its answer.
enum class Verb { kEval, kExact, kInterval, kSample };

struct WireCase {
  Verb verb = Verb::kEval;
  gmc::Tid tid;
  WeightClass weights = WeightClass::kGfomc;
  // exact_wire: index of the case whose TID this one mirrors (H1's left/right
  // symmetry), or -1.
  int mirror_of = -1;
  // A fixed, seed-independent request whose sampled estimate falls outside
  // [0, 1] (the unclamped-estimate fault); counted as failed on every run.
  bool known_fault = false;
  // The request line after "<VERB> <id> ".
  std::string body;
};

struct WireWorkload {
  std::string query_text;
  gmc::Query query;
  std::vector<WireCase> cases;  // one round, in send order
  size_t window = 1;            // requests in flight on the one connection
};

// H1 over domains 3..8: every base TID is sent as EVAL, its mirror image as
// EVAL_APPROX exact and itself again as EVAL_APPROX interval.
WireWorkload MakeExactWire(uint64_t seed);
// C9 sampled requests at (kSampleEpsilon, kSampleDelta), plus the fixed
// known-fault requests.
WireWorkload MakeSampledWire(uint64_t seed);

// One compile_cold operation: a query and the TIDs answered in one
// EvaluateAnswers call. The TIDs of an op share one grounded structure, and
// no two ops share one.
struct ColdOp {
  int query = 0;  // index into ColdCorpus::queries
  std::vector<gmc::Tid> tids;
  WeightClass weights = WeightClass::kGfomc;
};

struct ColdCorpus {
  std::vector<gmc::Query> queries;
  std::vector<ColdOp> ops;
};

ColdCorpus MakeColdCorpus(uint64_t seed);

// H1's mirror image of `tid`: R <-> T and S transposed, sides swapped.
gmc::Tid MirrorH1(const gmc::Query& h1, const gmc::Tid& tid);

// Number of ground tuples of `query`'s symbols at probability 1/2 in `tid`
// (k in Pr(Q) * 2^k, the model count of a GFOMC instance).
int HalfTuples(const gmc::Query& query, const gmc::Tid& tid);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
