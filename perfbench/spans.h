// In-memory span recorder for the benchmark's traced runs.
//
// Each span records its name, start, end, parent span and op id.  The
// spans nest strictly (one thread opens and closes them), so a span's
// self time is its duration minus the durations of its direct
// children.  Nothing is written until the run ends (write_jsonl).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;  // seconds since the recorder was created
    double end = 0.0;
    int parent = -1;     // index of the enclosing span, -1 at top level
    int op = -1;         // op id, -1 outside ops (set-up)
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  int open(const char* name, int op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[id].end = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  double duration(int id) const { return spans_[id].end - spans_[id].start; }

  /// Self time of every span: duration minus its direct children's.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& span : spans_)
      if (span.parent >= 0) self[span.parent] -= span.end - span.start;
    return self;
  }

  /// One JSON object per line, with each span's self time.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"op\": %d, "
                   "\"parent\": %d, \"start\": %.9f, \"end\": %.9f, "
                   "\"self\": %.9f}\n",
                   i, span.name, span.op, span.parent, span.start, span.end,
                   self[i]);
    }
    return std::fclose(out) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope; a null recorder records
/// nothing, so untraced code paths can share the call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int op)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
