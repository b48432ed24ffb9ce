// The reference probe: a fixed, program-independent unit of work whose
// duration tracks the machine's current speed. Every timing the benchmark
// reports is scaled by kProbeNominalMs / (the probe measured alongside it),
// so figures read "at the probe's nominal machine speed" and drift in the
// host's speed (frequency, neighbours, cache pressure) cancels out.
//
// The probe mixes the kinds of work gmc itself does: multi-limb integer
// multiplies (BigInt), small heap allocations (Rational temporaries),
// hash-map updates and short sorts (caches, canonical clause order) and
// random reads over a 4 MiB table (circuit arenas larger than L2). It is
// never run concurrently with the program under test.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// The probe slot's duration on the machine the reference figures in
// README.md come from. Changing it rescales every normalized figure, so it
// is a constant of the benchmark, never re-measured at run time.
inline constexpr double kProbeNominalMs = 1.6;

class Probe {
 public:
  Probe();

  // One probe slot: runs the kernel three times and returns the median
  // duration in milliseconds (the median drops a slot's one preempted run).
  double MeasureMs();

  // Wall-clock milliseconds of all slots measured so far (probe time is
  // excluded from every timed figure).
  double total_ms() const { return total_ms_; }

 private:
  double RunKernelMs();

  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
  double total_ms_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
