// In-memory spans for the traced run: name, start, end, parent span and
// request id, recorded around calls into each layer's public functions and
// written out once the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, or -1
    int64_t request;
  };

  // Closes its span on destruction; spans nest in scope order.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
    int32_t saved_parent_;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Durations (microseconds) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  size_t size() const { return spans_.size(); }
  // One JSON object per line.
  bool Write(const std::string& path) const;
  // Measured cost of recording one span, in nanoseconds.
  static double SpanCostNs();

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
