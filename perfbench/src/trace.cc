#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t request)
    : tracer_(tracer),
      index_(static_cast<int32_t>(tracer->spans_.size())),
      saved_parent_(tracer->current_) {
  tracer_->spans_.push_back({name, NowNs(), 0, saved_parent_, request});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.request));
  }
  return std::fclose(file) == 0;
}

double Tracer::SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer tracer;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) Scope scope(&tracer, "cost", i);
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace perfbench
