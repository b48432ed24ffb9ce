// gmc end-to-end benchmark driver.
//
//   perfbench --workload <exact_wire|sampled_wire|compile_cold> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload closed loop for --seconds, checks every answer against
// computations made apart from the path under test, and prints one JSON
// result line last on stdout. With --trace 0 it reports the end-to-end
// metrics; with --trace 1 it replays the workloads' inputs in process under
// spans and reports the per-layer metrics. See perfbench/README.md.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "approx/karp_luby.h"
#include "checks.h"
#include "compile/circuit_cache.h"
#include "core/dichotomy.h"
#include "corpus.h"
#include "lineage/grounder.h"
#include "logic/bipartite.h"
#include "probe.h"
#include "safe/safe_eval.h"
#include "server.h"
#include "store/circuit_io.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using gmc::Rational;

// Worker threads of the program under test (GMC_THREADS and
// GMC_SAMPLE_THREADS), fixed below the host's core count.
constexpr int kProgramThreads = 2;
// Work between two probe slots.
constexpr double kBlockMs = 100.0;
// /proc CPU times advance in 10 ms ticks, too coarse for one round, so CPU
// per answer is taken over windows of consecutive rounds at least this long.
constexpr double kCpuWindowMs = 2000.0;

const Clock::time_point g_process_start = Clock::now();

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ProcessCpuNowMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0 && args->seconds <= 120;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && have_seed && have_seconds && have_trace &&
         (args->workload == "exact_wire" || args->workload == "sampled_wire" ||
          args->workload == "compile_cold");
}

// This run's scratch directory (socket, store), removed on every exit path.
class RunDir {
 public:
  RunDir() : path_(".bench_run/" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string SelfDir() {
  return fs::read_symlink("/proc/self/exe").parent_path().string();
}

// ------------------------------------------------------------ measurement

// A stretch of closed-loop work between two probe slots, inside one round
// (one pass over the workload's inputs).
struct Block {
  size_t round = 0;
  double wall_ms = 0;
  double cpu_ms = 0;  // the program's CPU time over the block
  double probe_before = 0;
  double probe_after = 0;
  // Scales a raw time of this block to the probe's nominal speed.
  double Factor() const {
    return kProbeNominalMs / (0.5 * (probe_before + probe_after));
  }
};

struct Op {
  size_t block;
  size_t item;  // the workload case (or corpus op) it ran
  size_t slot;  // its place in a round; every round repeats each slot once
  double latency_ms;
  uint64_t answers;
};

struct Measurement {
  double setup_ms = 0;
  std::vector<Block> blocks;
  std::vector<Op> ops;
  double peak_rss_mb = 0;
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

void Fail(Outcome* outcome, const std::string& why) {
  outcome->correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

// End-to-end metrics of a measured run; `item_failed` marks the workload
// items whose every attempt counts as a failed operation. Every round does
// the same work, so throughput comes from the median round and CPU per
// answer from the median window of rounds, which a burst of load on the
// shared host moves less than a mean.
// With `normalize` false every timing stays in raw wall-clock terms
// (reported on stderr, for comparing raw and normalized spreads).
Metrics EndToEnd(const Measurement& m, const std::vector<bool>& item_failed,
                 bool normalize, uint64_t* attempted, uint64_t* failed) {
  auto factor = [&](const Block& block) {
    return normalize ? block.Factor() : 1.0;
  };
  const size_t rounds = m.blocks.back().round + 1;
  std::vector<double> round_ms(rounds), round_cpu_ms(rounds), probes;
  for (const Block& block : m.blocks) {
    round_ms[block.round] += block.wall_ms * factor(block);
    round_cpu_ms[block.round] += block.cpu_ms * factor(block);
    probes.push_back(block.probe_after);
  }
  std::map<size_t, std::vector<double>> slot_latencies;
  uint64_t answers = 0;
  *attempted = *failed = 0;
  for (const Op& op : m.ops) {
    slot_latencies[op.slot].push_back(op.latency_ms *
                                      factor(m.blocks[op.block]));
    ++*attempted;
    if (item_failed[op.item]) {
      ++*failed;
    } else {
      answers += op.answers;
    }
  }
  // Each slot's typical latency is its median over the rounds; the
  // percentiles are taken over the slots. A pooled percentile would sit
  // between two classes of operations (small and large instances, cache
  // reads and compilations) and move by whole classes with the host's load.
  std::vector<double> latencies;
  for (const auto& [slot, values] : slot_latencies) {
    latencies.push_back(Percentile(values, 0.5));
  }
  const double answers_per_round = static_cast<double>(answers) / rounds;
  std::vector<double> window_cpu_per_answer;
  double window_ms = 0, window_cpu_ms = 0, window_rounds = 0;
  for (size_t r = 0; r < rounds; ++r) {
    window_ms += round_ms[r];
    window_cpu_ms += round_cpu_ms[r];
    ++window_rounds;
    if (window_ms >= kCpuWindowMs ||
        (r + 1 == rounds && window_cpu_per_answer.empty())) {
      window_cpu_per_answer.push_back(window_cpu_ms /
                                      (window_rounds * answers_per_round));
      window_ms = window_cpu_ms = window_rounds = 0;
    }
  }
  const double setup_factor =
      normalize ? kProbeNominalMs / Percentile(probes, 0.5) : 1.0;
  return {{"setup_s", {m.setup_ms / 1e3 * setup_factor, "s"}},
          {"answers_per_s",
           {answers_per_round / (Percentile(round_ms, 0.5) / 1e3), "1/s"}},
          {"latency_p50_ms", {Percentile(latencies, 0.5), "ms"}},
          {"latency_p90_ms", {Percentile(latencies, 0.9), "ms"}},
          {"cpu_ms_per_answer",
           {Percentile(window_cpu_per_answer, 0.5), "ms"}},
          {"peak_rss_mb", {m.peak_rss_mb, "MiB"}}};
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buffer[256];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(), metric.value,
                  metric.unit.c_str());
    out += buffer;
  }
  return out + "}";
}

void Report(const Measurement& m, const std::vector<bool>& item_failed,
            Outcome* outcome) {
  outcome->metrics =
      EndToEnd(m, item_failed, true, &outcome->attempted, &outcome->failed);
  std::fprintf(
      stderr, "perfbench: raw %s\n",
      MetricsJson(EndToEnd(m, item_failed, false, &outcome->attempted,
                           &outcome->failed))
          .c_str());
}

// ------------------------------------------------------------ the wire

struct WireReply {
  size_t item;
  double latency_ms;
  std::string line;  // "OK ..." / "ERR ..." with the id removed
};

// Closed loop over one connection: sends the workload's cases cyclically
// from *next with up to `window` requests in flight, stops sending once
// `stop(*next)` holds (checked before every send), and drains.
class WireLoop {
 public:
  WireLoop(const WireWorkload& workload, LineClient* client)
      : workload_(workload), client_(client) {}

  bool Pump(size_t window, const std::function<bool(size_t)>& stop,
            std::vector<WireReply>* replies, std::string* error) {
    std::unordered_map<std::string, std::pair<size_t, Clock::time_point>>
        inflight;
    bool sending = true;
    while (true) {
      while (sending && inflight.size() < window) {
        if (stop(next_)) {
          sending = false;
          break;
        }
        const size_t item = next_ % workload_.cases.size();
        const WireCase& c = workload_.cases[item];
        const std::string id = "q" + std::to_string(next_++);
        const char* verb = c.verb == Verb::kEval ? "EVAL " : "EVAL_APPROX ";
        inflight[id] = {item, Clock::now()};
        if (!client_->Send(verb + id + " " + c.body)) {
          *error = "send failed";
          return false;
        }
        ++sent_;
      }
      if (inflight.empty()) return true;
      std::string line;
      if (!client_->ReadLine(&line)) {
        *error = "connection lost with " + std::to_string(inflight.size()) +
                 " requests in flight";
        return false;
      }
      const Clock::time_point now = Clock::now();
      std::istringstream words(line);
      std::string status, id;
      words >> status >> id;
      const auto it = inflight.find(id);
      if (it == inflight.end() || (status != "OK" && status != "ERR")) {
        *error = "unexpected reply: " + line.substr(0, 200);
        return false;
      }
      if (status == "OK") ++ok_;
      std::string rest;
      std::getline(words, rest);
      replies->push_back(
          {it->second.first,
           std::chrono::duration<double, std::milli>(now - it->second.second)
               .count(),
           status + rest});
      inflight.erase(it);
    }
  }

  // One request/reply for a non-EVAL verb (STATS, HEALTH, QUIT).
  bool Command(const std::string& verb, std::string* reply) {
    return client_->Send(verb) && client_->ReadLine(reply);
  }

  size_t next() const { return next_; }
  uint64_t sent() const { return sent_; }
  uint64_t ok() const { return ok_; }

 private:
  const WireWorkload& workload_;
  LineClient* client_;
  size_t next_ = 0;
  uint64_t sent_ = 0;
  uint64_t ok_ = 0;
};

// Records each case's first reply and flags any later reply that differs:
// every answer of this benchmark is deterministic.
class ReplyBook {
 public:
  explicit ReplyBook(size_t cases) : first_(cases) {}
  void Add(const WireReply& reply, Outcome* outcome) {
    std::string& first = first_[reply.item];
    if (first.empty()) {
      first = reply.line;
    } else if (first != reply.line && mismatches_++ == 0) {
      Fail(outcome, "case " + std::to_string(reply.item) + " answered '" +
                        reply.line.substr(0, 120) + "' after '" +
                        first.substr(0, 120) + "'");
    }
  }
  const std::string& first(size_t item) const { return first_[item]; }

 private:
  std::vector<std::string> first_;
  uint64_t mismatches_ = 0;
};

std::vector<std::string> Words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

// "key=value" -> value.
std::string Field(const std::string& word, const std::string& key) {
  return word.rfind(key + "=", 0) == 0 ? word.substr(key.size() + 1) : "";
}

// An operation fails when the server answers ERR or returns an estimate
// outside [0, 1].
bool ReplyFailed(const std::string& line) {
  const std::vector<std::string> w = Words(line);
  if (w.empty() || w[0] != "OK") return true;
  if (w.size() >= 3 && w[1] == "ESTIMATE") {
    const std::optional<double> estimate = ParseDouble(w[2]);
    return !estimate || !CheckInRange(*estimate).empty();
  }
  return false;
}

// Checks one round's first replies against the references. Fills
// item_failed (ERR replies and out-of-range estimates fail the operation);
// any other wrong answer fails the run's correctness.
void CheckWireCases(const WireWorkload& workload, const ReplyBook& book,
                    std::vector<bool>* item_failed, Outcome* outcome) {
  const size_t n = workload.cases.size();
  item_failed->assign(n, false);
  std::vector<std::optional<Rational>> exact(n);
  int sampled = 0, misses = 0;
  double delta = 0;
  for (size_t i = 0; i < n; ++i) {
    const WireCase& c = workload.cases[i];
    const std::string& reply = book.first(i);
    const std::vector<std::string> w = Words(reply);
    const std::string where = "case " + std::to_string(i) + " (" +
                              WeightClassName(c.weights) + "): ";
    if (w.empty() || w[0] != "OK") {
      (*item_failed)[i] = true;
      Fail(outcome, where + "error reply '" + reply.substr(0, 160) + "'");
      continue;
    }
    if (c.verb == Verb::kSample) {
      std::optional<double> estimate, eps;
      if (w.size() >= 4 && w[1] == "ESTIMATE") {
        estimate = ParseDouble(w[2]);
        eps = ParseDouble(Field(w[3], "eps"));
        if (const auto d = ParseDouble(Field(w[4], "delta"))) delta = *d;
      }
      if (!estimate || !eps) {
        Fail(outcome, where + "malformed estimate '" + reply + "'");
        continue;
      }
      if (const std::string why = CheckInRange(*estimate); !why.empty()) {
        (*item_failed)[i] = true;
        if (!c.known_fault) Fail(outcome, where + why);
        continue;
      }
      ++sampled;
      if (SampleMissed(*estimate, *eps,
                       ReferenceProbability(workload.query, c.tid))) {
        ++misses;
      }
      continue;
    }
    const Rational reference = ReferenceProbability(workload.query, c.tid);
    std::string why;
    // A trivial instance (a lineage that grounds to true or false) is
    // answered exactly even in interval mode: a degenerate enclosure.
    if (c.verb == Verb::kInterval && !(w.size() >= 3 && w[1] == "EXACT")) {
      std::optional<double> lo, hi;
      if (w.size() >= 4 && w[1] == "INTERVAL") {
        lo = ParseDouble(w[2]);
        hi = ParseDouble(w[3]);
      }
      why = lo && hi ? CheckInterval(*lo, *hi, reference)
                     : "malformed interval '" + reply + "'";
    } else {
      const size_t at = c.verb == Verb::kEval ? 1 : 2;
      if (w.size() > at && (c.verb == Verb::kEval || w[1] == "EXACT")) {
        exact[i] = ParseRational(w[at]);
      }
      if (!exact[i]) {
        why = "malformed exact answer '" + reply + "'";
      } else {
        why = CheckExact(*exact[i], reference);
        if (why.empty() && c.weights == WeightClass::kGfomc) {
          why = CheckModelCount(*exact[i], HalfTuples(workload.query, c.tid));
        }
        if (why.empty() && c.mirror_of >= 0 && exact[c.mirror_of]) {
          why = CheckMirror(*exact[c.mirror_of], *exact[i]);
        }
      }
    }
    if (!why.empty()) Fail(outcome, where + why);
  }
  if (sampled > 0) {
    if (const std::string why = CheckMissCount(misses, sampled, delta);
        !why.empty()) {
      Fail(outcome, why);
    }
  }
}

// STATS cross-checks against the client's own tallies.
void CheckServerStats(const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after,
                      const WireLoop& loop, bool expect_no_compiles,
                      Outcome* outcome) {
  auto get = [](const std::map<std::string, double>& stats, const char* key) {
    const auto it = stats.find(key);
    return it == stats.end() ? -1.0 : it->second;
  };
  if (get(after, "requests") != static_cast<double>(loop.sent())) {
    Fail(outcome, "STATS requests " + std::to_string(get(after, "requests")) +
                      " != sent " + std::to_string(loop.sent()));
  }
  if (get(after, "responses") != static_cast<double>(loop.ok())) {
    Fail(outcome, "STATS responses " + std::to_string(get(after, "responses")) +
                      " != OK replies " + std::to_string(loop.ok()));
  }
  if (expect_no_compiles &&
      get(after, "circuit_compiles") != get(before, "circuit_compiles")) {
    Fail(outcome, "circuits compiled during the timed phase");
  }
  if (get(after, "degraded") != 0 || get(after, "shed") != 0) {
    Fail(outcome, "STATS degraded/shed are not 0");
  }
}

struct WireSession {
  ServerProcess server;
  LineClient client;
};

bool StartServer(const WireWorkload& workload, const RunDir& dir,
                 WireSession* session, std::string* error) {
  const std::string socket = dir.path() + "/sock";
  const std::string store = dir.path() + "/store";
  fs::create_directories(store);
  return session->server.Start(SelfDir() + "/gmc_serve", socket,
                               workload.query_text, store, kProgramThreads,
                               error) &&
         session->client.Connect(socket, 30.0, error);
}

bool StopServer(WireLoop* loop, WireSession* session, std::string* error) {
  std::string bye;
  loop->Command("QUIT", &bye);
  session->client.Close();
  return session->server.Stop(error);
}

// `inputs_ms`: the benchmark's own input generation, which set-up excludes.
Outcome RunWire(const Args& args, const WireWorkload& workload, Probe* probe,
                double inputs_ms) {
  Outcome outcome;
  Measurement m;
  RunDir dir;
  WireSession session;
  std::string error;
  if (!StartServer(workload, dir, &session, &error)) {
    throw std::runtime_error(error);
  }
  WireLoop loop(workload, &session.client);
  ReplyBook book(workload.cases.size());
  const size_t round = workload.cases.size();

  // Warm-up: one whole round compiles every structure (exact_wire) and
  // builds every sampler plan (sampled_wire).
  std::vector<WireReply> replies;
  if (!loop.Pump(workload.window, [&](size_t next) { return next >= round; },
                 &replies, &error)) {
    throw std::runtime_error(error);
  }
  for (const WireReply& reply : replies) book.Add(reply, &outcome);
  std::string stats_line;
  loop.Command("STATS", &stats_line);
  const auto stats_before = ParseKeyValues(stats_line);
  m.setup_ms = MsSince(g_process_start) - probe->total_ms() - inputs_ms;
  double last_probe = probe->MeasureMs();

  // Blocks end at round boundaries, so every round's time is the sum of
  // its own blocks.
  const Clock::time_point start = Clock::now();
  bool done = false;
  while (!done) {
    Block block;
    block.round = loop.next() / round - 1;  // the warm-up was round 0
    block.probe_before = last_probe;
    const double cpu_before = ProcessCpuMs(session.server.pid());
    const Clock::time_point block_start = Clock::now();
    const size_t first = loop.next();
    replies.clear();
    auto stop = [&](size_t next) {
      if (next % round == 0 && next != first) {
        done = MsSince(start) >= args.seconds * 1e3;
        return true;
      }
      return MsSince(block_start) >= kBlockMs;
    };
    if (!loop.Pump(workload.window, stop, &replies, &error)) {
      throw std::runtime_error(error);
    }
    block.wall_ms = MsSince(block_start);
    block.cpu_ms = ProcessCpuMs(session.server.pid()) - cpu_before;
    last_probe = probe->MeasureMs();
    block.probe_after = last_probe;
    for (const WireReply& reply : replies) {
      book.Add(reply, &outcome);
      m.ops.push_back(
          {m.blocks.size(), reply.item, reply.item, reply.latency_ms, 1});
    }
    m.blocks.push_back(block);
  }
  m.peak_rss_mb = PeakRssMb(session.server.pid());
  loop.Command("STATS", &stats_line);
  CheckServerStats(stats_before, ParseKeyValues(stats_line), loop,
                   args.workload == "exact_wire", &outcome);
  if (!StopServer(&loop, &session, &error)) Fail(&outcome, error);

  std::vector<bool> item_failed;
  CheckWireCases(workload, book, &item_failed, &outcome);
  Report(m, item_failed, &outcome);
  return outcome;
}

// ------------------------------------------------------------ compile_cold

gmc::GmcOptions ColdOptions(const std::string& store, bool write_through) {
  gmc::GmcOptions options = gmc::GmcOptions::FromEnv();
  options.routing_mode = gmc::RoutingMode::kExact;
  options.compile_budget = gmc::CompileBudget{};  // unlimited: always exact
  options.num_threads = kProgramThreads;
  options.sample_threads = kProgramThreads;
  options.store_directory = store;
  options.store_write_through = write_through;
  return options;
}

// The exact answers of one corpus op, or an error.
std::vector<Rational> ColdAnswers(const std::vector<gmc::GmcAnswer>& answers,
                                  std::string* why) {
  std::vector<Rational> out;
  for (const gmc::GmcAnswer& answer : answers) {
    if (!answer.IsExact()) *why = "inexact tier in compile_cold";
    out.push_back(answer.exact);
  }
  return out;
}

void CheckColdAnswers(const ColdCorpus& corpus,
                      const std::vector<std::vector<Rational>>& answers,
                      Outcome* outcome) {
  for (size_t i = 0; i < corpus.ops.size(); ++i) {
    const ColdOp& op = corpus.ops[i];
    const gmc::Query& query = corpus.queries[op.query];
    for (size_t k = 0; k < op.tids.size(); ++k) {
      const Rational reference = ReferenceProbability(query, op.tids[k]);
      std::string why = CheckExact(answers[i][k], reference);
      if (why.empty() && op.weights == WeightClass::kGfomc) {
        why = CheckModelCount(answers[i][k], HalfTuples(query, op.tids[k]));
      }
      if (!why.empty()) {
        Fail(outcome, "compile_cold op " + std::to_string(i) + ": " + why);
      }
    }
  }
}

Outcome RunCold(const Args& args, Probe* probe) {
  Outcome outcome;
  Measurement m;
  RunDir dir;
  const Clock::time_point made = Clock::now();
  const ColdCorpus corpus = MakeColdCorpus(args.seed);
  const double inputs_ms = MsSince(made);
  // Session construction is the set-up; every pass then builds its own.
  { gmc::GfomcSession warm; warm.Configure(ColdOptions("", true)); }
  m.setup_ms = MsSince(g_process_start) - probe->total_ms() - inputs_ms;
  double last_probe = probe->MeasureMs();

  std::vector<std::vector<Rational>> first(corpus.ops.size());
  Block block;
  block.probe_before = last_probe;
  double since_probe_ms = 0;
  auto close_block = [&]() {
    last_probe = probe->MeasureMs();
    block.probe_after = last_probe;
    m.blocks.push_back(block);
    block = Block{block.round};
    block.probe_before = last_probe;
    since_probe_ms = 0;
  };

  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass == 0 || MsSince(start) < args.seconds * 1e3;
       ++pass) {
    block.round = static_cast<size_t>(pass);
    const std::string store = dir.path() + "/store" + std::to_string(pass);
    fs::create_directories(store);
    // First half compiles and writes through; the second answers the same
    // corpus from the store the first one wrote.
    for (int half = 0; half < 2; ++half) {
      gmc::GfomcSession session;
      session.Configure(ColdOptions(store, half == 0));
      for (size_t i = 0; i < corpus.ops.size(); ++i) {
        const ColdOp& op = corpus.ops[i];
        std::vector<gmc::GmcAnswer> answers;
        const double cpu_before = ProcessCpuNowMs();
        const Clock::time_point op_start = Clock::now();
        const gmc::GmcStatus status =
            session.EvaluateAnswers(corpus.queries[op.query], op.tids, &answers);
        const double ms = MsSince(op_start);
        block.cpu_ms += ProcessCpuNowMs() - cpu_before;
        block.wall_ms += ms;
        since_probe_ms += ms;
        m.ops.push_back({m.blocks.size(), i, half * corpus.ops.size() + i, ms,
                         op.tids.size()});
        std::string why = status.ok() ? "" : status.message;
        const std::vector<Rational> exact = ColdAnswers(answers, &why);
        if (first[i].empty()) first[i] = exact;
        if (why.empty() && exact != first[i]) why = "answer changed";
        if (!why.empty()) {
          Fail(&outcome, "compile_cold op " + std::to_string(i) + ": " + why);
        }
        if (since_probe_ms >= kBlockMs) close_block();
      }
      const gmc::GfomcSession::Stats stats = session.stats();
      if (half == 1 && (stats.circuit_compiles != 0 || stats.store_hits == 0)) {
        Fail(&outcome, "the store half compiled " +
                           std::to_string(stats.circuit_compiles) +
                           " structures (" + std::to_string(stats.store_hits) +
                           " store hits)");
      }
    }
    if (since_probe_ms > 0) close_block();  // blocks end with their pass
    fs::remove_all(store);
  }
  m.peak_rss_mb = PeakRssMb(::getpid());

  CheckColdAnswers(corpus, first, &outcome);
  Report(m, std::vector<bool>(corpus.ops.size(), false), &outcome);
  return outcome;
}

// ------------------------------------------------------------ traced run

// Splits the run into phases; each repeats whole rounds of its work until
// its share of --seconds has passed.
class Phase {
 public:
  explicit Phase(double seconds) : budget_ms_(seconds * 1e3), start_(Clock::now()) {}
  bool More(int rounds_done) const {
    return rounds_done == 0 || MsSince(start_) < budget_ms_;
  }

 private:
  double budget_ms_;
  Clock::time_point start_;
};

double MedianUs(const Tracer& tracer, const char* name) {
  return Percentile(tracer.DurationsUs(name), 0.5);
}
double SumUs(const Tracer& tracer, const char* name) {
  double sum = 0;
  for (double us : tracer.DurationsUs(name)) sum += us;
  return sum;
}

double SampleEpsilon() { return ParseRational(kSampleEpsilon)->ToDouble(); }
double SampleDelta() { return ParseRational(kSampleDelta)->ToDouble(); }

gmc::GmcOptions SessionOptions(gmc::RoutingMode mode) {
  gmc::GmcOptions options = gmc::GmcOptions::FromEnv();
  options.routing_mode = mode;
  options.num_threads = kProgramThreads;
  options.sample_threads = kProgramThreads;
  options.epsilon = SampleEpsilon();
  options.delta = SampleDelta();
  return options;
}

Outcome RunTraced(const Args& args, Probe* probe) {
  Outcome outcome;
  Tracer tracer;
  std::vector<double> probes = {probe->MeasureMs()};
  const double share = args.seconds / 5.0;
  const WireWorkload exact = MakeExactWire(args.seed);
  const WireWorkload sampled = MakeSampledWire(args.seed);
  const ColdCorpus cold = MakeColdCorpus(args.seed);
  Metrics& out = outcome.metrics;
  std::string error;
  int64_t request = 0;

  // 1. The serve layer: the workload's own wire traffic (exact_wire's for
  //    compile_cold), in whole rounds, first with the workload's window
  //    (round size), then one request at a time (the wire's own cost per
  //    request). Its operations are the run's attempted and failed counts.
  const WireWorkload& wire = args.workload == "sampled_wire" ? sampled : exact;
  std::vector<double> wire_single_us;
  {
    RunDir dir;
    WireSession session;
    if (!StartServer(wire, dir, &session, &error)) {
      throw std::runtime_error(error);
    }
    WireLoop loop(wire, &session.client);
    const size_t round = wire.cases.size();
    std::vector<WireReply> replies;
    auto tally = [&outcome](const std::vector<WireReply>& batch) {
      for (const WireReply& reply : batch) {
        ++outcome.attempted;
        if (ReplyFailed(reply.line)) ++outcome.failed;
      }
    };
    auto pump = [&](size_t window, size_t until) {
      replies.clear();
      if (!loop.Pump(window, [&](size_t next) { return next >= until; },
                     &replies, &error)) {
        throw std::runtime_error(error);
      }
      tally(replies);
    };
    pump(wire.window, round);
    std::string line;
    loop.Command("STATS", &line);
    const auto before = ParseKeyValues(line);
    Phase windowed(share);
    for (int r = 0; windowed.More(r); ++r) {
      Tracer::Scope span(&tracer, "wire.round", request++);
      pump(wire.window, loop.next() + round);
    }
    loop.Command("STATS", &line);
    const auto after = ParseKeyValues(line);
    out["serve.round_size"] = {
        (after.at("batched_requests") - before.at("batched_requests")) /
            std::max(1.0, after.at("batches") - before.at("batches")),
        "requests"};
    probes.push_back(probe->MeasureMs());
    Phase single(share * 0.5);
    for (int r = 0; single.More(r); ++r) {
      for (size_t i = 0; i < round; ++i) {
        pump(1, loop.next() + 1);
        wire_single_us.push_back(replies.front().latency_ms * 1e3);
      }
    }
    if (!StopServer(&loop, &session, &error)) Fail(&outcome, error);
  }
  probes.push_back(probe->MeasureMs());

  // 2. The same requests in process through the session, then exact_wire's
  //    requests through grounding and the circuit cache's compile and pass
  //    kernels by numeric class.
  {
    gmc::GfomcSession by_mode[3];
    by_mode[0].Configure(SessionOptions(gmc::RoutingMode::kExact));
    by_mode[1].Configure(SessionOptions(gmc::RoutingMode::kInterval));
    by_mode[2].Configure(SessionOptions(gmc::RoutingMode::kSample));
    auto session_for = [&](Verb verb) -> gmc::GfomcSession& {
      return by_mode[verb == Verb::kInterval ? 1 : verb == Verb::kSample ? 2 : 0];
    };
    std::vector<gmc::GmcAnswer> answers;
    for (const WireCase& c : wire.cases) {  // warm, like the server
      session_for(c.verb).EvaluateAnswers(wire.query, {c.tid}, &answers);
    }
    Phase phase(share * 0.5);
    for (int r = 0; phase.More(r); ++r) {
      for (const WireCase& c : wire.cases) {
        Tracer::Scope span(&tracer, "core.evaluate", request++);
        session_for(c.verb).EvaluateAnswers(wire.query, {c.tid}, &answers);
      }
    }
    gmc::CircuitCache cache;
    cache.set_num_threads(kProgramThreads);
    Phase kernels(share * 0.5);
    for (int r = 0; kernels.More(r); ++r) {
      for (const WireCase& c : exact.cases) {
        gmc::Lineage lineage = [&] {
          Tracer::Scope span(&tracer, "lineage.ground", request);
          return gmc::Ground(exact.query, c.tid);
        }();
        if (r == 0) {
          Tracer::Scope span(&tracer, "compile.compile", request);
          cache.Get(lineage.cnf);
        }
        const char* pass = c.weights == WeightClass::kRational
                               ? "compile.pass_rational"
                               : "compile.pass_dyadic";
        Tracer::Scope span(&tracer, pass, request++);
        cache.ProbabilityBatch({lineage});
      }
    }
    const gmc::CircuitCache::Stats stats = cache.stats();
    out["compile.fixed_share"] = {
        static_cast<double>(stats.fixed64_vectors + stats.fixed128_vectors) /
            std::max<uint64_t>(1, stats.batched_vectors),
        "ratio"};
    out["compile.cache_hit_ratio"] = {
        static_cast<double>(stats.hits) /
            std::max<uint64_t>(1, stats.hits + stats.compiles),
        "ratio"};
  }
  probes.push_back(probe->MeasureMs());

  // 3. sampled_wire's requests in process: plan builds, the sample loop,
  //    and plan sharing inside the session.
  {
    gmc::KarpLubyParams params;
    params.epsilon = SampleEpsilon();
    params.delta = SampleDelta();
    params.num_threads = kProgramThreads;
    uint64_t samples = 0;
    Phase phase(share);
    for (int r = 0; phase.More(r); ++r) {
      for (const WireCase& c : sampled.cases) {
        const gmc::Lineage lineage = gmc::Ground(sampled.query, c.tid);
        std::shared_ptr<const gmc::KarpLubyPlan> plan;
        {
          Tracer::Scope span(&tracer, "approx.plan_build", request);
          plan = gmc::BuildKarpLubyPlan(lineage.cnf, lineage.probabilities);
        }
        Tracer::Scope span(&tracer, "approx.estimate", request++);
        samples += gmc::KarpLubyEstimate(*plan, params).samples;
      }
    }
    const double estimate_us = SumUs(tracer, "approx.estimate");
    out["approx.ns_per_sample"] = {estimate_us * 1e3 / samples, "ns"};
    out["approx.samples_per_s"] = {samples / (estimate_us / 1e6), "1/s"};
    gmc::GfomcSession session;
    session.Configure(SessionOptions(gmc::RoutingMode::kSample));
    std::vector<gmc::GmcAnswer> answers;
    for (int r = 0; r < 2; ++r) {
      for (size_t i = 0; i < sampled.cases.size(); i += sampled.window) {
        std::vector<gmc::Tid> group;
        for (size_t k = i; k < std::min(sampled.cases.size(), i + sampled.window);
             ++k) {
          group.push_back(sampled.cases[k].tid);
        }
        session.EvaluateAnswers(sampled.query, group, &answers);
      }
    }
    const gmc::GfomcSession::Stats stats = session.stats();
    out["approx.plan_hit_ratio"] = {
        static_cast<double>(stats.plan_hits) /
            std::max<uint64_t>(1, stats.plan_hits + stats.plan_misses),
        "ratio"};
  }
  probes.push_back(probe->MeasureMs());

  // 4. compile_cold's corpus: compilation and minimization, the store's
  //    writes and reads, the store-backed session and the lifted plan.
  {
    RunDir dir;
    const std::string store = dir.path() + "/store";
    fs::create_directories(store);
    double circuit_edges = 0, file_bytes = 0, store_answers = 0;
    uint64_t nodes_before = 0, nodes_after = 0;
    Phase phase(share);
    for (int r = 0; phase.More(r); ++r) {
      gmc::CircuitCache cache;
      cache.set_num_threads(kProgramThreads);
      gmc::SafeEvaluator lifted;
      for (size_t i = 0; i < cold.ops.size(); ++i, ++request) {
        const ColdOp& op = cold.ops[i];
        const gmc::Query& query = cold.queries[op.query];
        gmc::Lineage lineage = [&] {
          Tracer::Scope span(&tracer, "lineage.ground", request);
          return gmc::Ground(query, op.tids.front());
        }();
        if (gmc::IsSafe(query) && op.weights != WeightClass::kGfomc) {
          for (const gmc::Tid& tid : op.tids) {
            Tracer::Scope span(&tracer, "safe.lifted", request);
            lifted.Evaluate(query, tid);
          }
          continue;
        }
        const gmc::NnfCircuit* circuit = nullptr;
        {
          Tracer::Scope span(&tracer, "compile.compile", request);
          circuit = &cache.Get(lineage.cnf);
        }
        const std::string path = store + "/" + std::to_string(i) + ".gmcc";
        {
          Tracer::Scope span(&tracer, "store.save", request);
          if (!gmc::store::SaveCircuit(*circuit, lineage.cnf,
                                       gmc::OrderHeuristic::kDefault, path,
                                       &error)) {
            Fail(&outcome, "SaveCircuit: " + error);
          }
        }
        gmc::store::LoadedCircuit loaded;
        gmc::store::MappedCircuitView view;
        {
          Tracer::Scope span(&tracer, "store.load", request);
          gmc::store::LoadCircuit(path, &loaded, &error);
        }
        {
          Tracer::Scope span(&tracer, "store.load", request);
          view.Open(path, &error);
        }
        if (r == 0) {
          circuit_edges += static_cast<double>(circuit->ComputeStats().edges);
          file_bytes += static_cast<double>(fs::file_size(path));
        }
      }
      if (r == 0) {
        nodes_before = cache.stats().nodes_before_minimize;
        nodes_after = cache.stats().nodes_after_minimize;
      }
      // The store-backed session: a fresh one answering from what the
      // compile half of compile_cold writes.
      const std::string session_store = dir.path() + "/s" + std::to_string(r);
      fs::create_directories(session_store);
      {
        gmc::GfomcSession writer;
        writer.Configure(ColdOptions(session_store, true));
        std::vector<gmc::GmcAnswer> answers;
        for (const ColdOp& op : cold.ops) {
          writer.EvaluateAnswers(cold.queries[op.query], op.tids, &answers);
        }
      }
      gmc::GfomcSession reader;
      reader.Configure(ColdOptions(session_store, false));
      std::vector<gmc::GmcAnswer> answers;
      for (const ColdOp& op : cold.ops) {
        Tracer::Scope span(&tracer, "store.session", request++);
        reader.EvaluateAnswers(cold.queries[op.query], op.tids, &answers);
        store_answers += static_cast<double>(answers.size());
      }
      fs::remove_all(session_store);
    }
    out["compile.circuit_edges"] = {circuit_edges, "count"};
    out["compile.minimize_ratio"] = {
        static_cast<double>(nodes_after) / std::max<uint64_t>(1, nodes_before),
        "ratio"};
    out["store.file_bytes"] = {file_bytes, "bytes"};
    out["store.answers_per_s"] = {
        store_answers / (SumUs(tracer, "store.session") / 1e6), "1/s"};
  }
  probes.push_back(probe->MeasureMs());

  // Every timing at the probe's nominal speed.
  const double probe_ms = Percentile(probes, 0.5);
  const double f = kProbeNominalMs / probe_ms;
  const double wire_p50_us = Percentile(wire_single_us, 0.5) * f;
  const double core_p50_us = MedianUs(tracer, "core.evaluate") * f;
  out["serve.overhead_us"] = {wire_p50_us - core_p50_us, "us"};
  out["core.evaluate_us"] = {core_p50_us, "us"};
  out["lineage.ground_us"] = {MedianUs(tracer, "lineage.ground") * f, "us"};
  out["compile.compile_ms"] = {
      Mean(tracer.DurationsUs("compile.compile")) / 1e3 * f, "ms"};
  out["compile.pass_us_dyadic"] = {
      MedianUs(tracer, "compile.pass_dyadic") * f, "us"};
  out["compile.pass_us_rational"] = {
      MedianUs(tracer, "compile.pass_rational") * f, "us"};
  out["approx.ns_per_sample"].value *= f;
  out["approx.samples_per_s"].value /= f;
  out["approx.plan_build_us"] = {MedianUs(tracer, "approx.plan_build") * f,
                                 "us"};
  out["store.save_ms"] = {MedianUs(tracer, "store.save") / 1e3 * f, "ms"};
  out["store.load_ms"] = {MedianUs(tracer, "store.load") / 1e3 * f, "ms"};
  out["store.answers_per_s"].value /= f;
  out["safe.lifted_us"] = {MedianUs(tracer, "safe.lifted") * f, "us"};
  out["bench.probe_ms"] = {probe_ms, "ms"};
  // Tracing's own cost against an untraced run: spans recorded times the
  // measured cost of one span, as a share of the traced run's wall time.
  const double traced_ms = MsSince(g_process_start);
  out["bench.trace_overhead_pct"] = {
      100.0 * tracer.size() * Tracer::SpanCostNs() / (traced_ms * 1e6), "%"};

  fs::create_directories(".bench_out");
  const std::string path = ".bench_out/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!tracer.Write(path)) Fail(&outcome, "could not write " + path);
  return outcome;
}

void PrintResult(const Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(outcome.metrics).c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<exact_wire|sampled_wire|compile_cold> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Probe probe;
  Outcome outcome;
  if (args.trace) {
    outcome = RunTraced(args, &probe);
  } else if (args.workload == "compile_cold") {
    outcome = RunCold(args, &probe);
  } else {
    const Clock::time_point made = Clock::now();
    const WireWorkload workload = args.workload == "exact_wire"
                                      ? MakeExactWire(args.seed)
                                      : MakeSampledWire(args.seed);
    outcome = RunWire(args, workload, &probe, MsSince(made));
  }
  if (const std::string why = SelfTest(); !why.empty()) {
    Fail(&outcome, "self-test: " + why);
  }
  PrintResult(outcome);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
