#include "probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr size_t kTableWords = (4u << 20) / sizeof(uint64_t);  // 4 MiB
// Sized so that the first four parts take a similar share of the slot and
// the random reads about a tenth of that: reads that miss L2 swing with the
// shared host's L3 load far more than gmc's own time does, and at an equal
// share they made normalized round times noisier than raw ones.
constexpr int kMultiplies = 15000;
constexpr int kAllocations = 12000;
constexpr int kMapUpdates = 18000;
constexpr int kSorts = 300;
constexpr int kRandomReads = 1000;

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

// 4 x 4 limb schoolbook product, folded back into `a` so every iteration
// depends on the previous one.
uint64_t Multiply4(std::array<uint64_t, 4>* a, const std::array<uint64_t, 4>& b) {
  std::array<uint64_t, 8> r{};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>((*a)[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<uint64_t>(t);
      carry = t >> 64;
    }
    r[i + 4] = static_cast<uint64_t>(carry);
  }
  for (int i = 0; i < 4; ++i) (*a)[i] = r[i] ^ r[i + 4] ^ (2 * i + 1);
  return r[7];
}

}  // namespace

Probe::Probe() : table_(kTableWords) {
  uint64_t state = 0x2545f4914f6cdd1dull;
  for (uint64_t& word : table_) word = XorShift(&state);
}

double Probe::RunKernelMs() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t state = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;

  std::array<uint64_t, 4> a{XorShift(&state), XorShift(&state),
                            XorShift(&state), XorShift(&state)};
  const std::array<uint64_t, 4> b{XorShift(&state), XorShift(&state),
                                  XorShift(&state), XorShift(&state)};
  for (int i = 0; i < kMultiplies; ++i) acc += Multiply4(&a, b);

  std::array<std::unique_ptr<uint64_t[]>, 64> live;
  for (int i = 0; i < kAllocations; ++i) {
    const size_t words = 1 + XorShift(&state) % 24;
    auto block = std::make_unique<uint64_t[]>(words);
    block[words - 1] = state;
    live[i % live.size()] = std::move(block);
  }
  for (const auto& block : live) acc += block ? block[0] : 0;

  std::unordered_map<uint64_t, uint64_t> map;
  for (int i = 0; i < kMapUpdates; ++i) map[XorShift(&state) % 2048] += i;
  acc += map.size();

  std::array<uint64_t, 64> keys;
  for (int s = 0; s < kSorts; ++s) {
    for (uint64_t& key : keys) key = XorShift(&state);
    std::sort(keys.begin(), keys.end());
    acc += keys[s % keys.size()];
  }

  uint64_t index = state % table_.size();
  for (int i = 0; i < kRandomReads; ++i) {
    const uint64_t word = table_[index];
    acc += word;
    index = (word ^ acc) % table_.size();
  }

  sink_ += acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Probe::MeasureMs() {
  std::array<double, 3> runs{};
  for (double& run : runs) {
    run = RunKernelMs();
    total_ms_ += run;
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

}  // namespace perfbench
