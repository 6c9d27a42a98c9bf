// In-memory host-time spans for the traced run.
//
// Every span has a name, a start and an end (seconds on the host's steady
// clock, relative to the recorder's creation), the span that encloses it and
// the task it belongs to (-1 outside tasks). Spans are recorded from the
// benchmark's own code around calls into the simulator's modules; nothing
// inside the simulator is instrumented. Single-threaded by design: the traced
// run executes its tasks on one runner thread.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

class Spans {
 public:
  struct Span {
    const char* name;  // string literal
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int task = -1;
  };

  Spans() : origin_(Clock::now()) {}

  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  int begin(const char* name, int task) {
    spans_.push_back(Span{name, now(), 0.0, open_.empty() ? -1 : open_.back(), task});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }

  const std::vector<Span>& all() const { return spans_; }

  /// Per span name: total self time (duration minus the time its direct
  /// children cover) and the number of spans.
  struct Self {
    double seconds = 0.0;
    long long calls = 0;
  };
  std::map<std::string, Self> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Self> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Self& e = out[spans_[i].name];
      e.seconds += spans_[i].end - spans_[i].start - child[i];
      ++e.calls;
    }
    return out;
  }

  /// One JSON object per line: {"id","name","start","end","parent","task"}.
  std::string to_jsonl() const {
    std::string out;
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d, \"task\": %d}\n",
                    i, s.name, s.start, s.end, s.parent, s.task);
      out += line;
    }
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(Spans* spans, const char* name, int task)
      : spans_(spans), id_(spans ? spans->begin(name, task) : -1) {}
  ~Scope() {
    if (spans_) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

}  // namespace hostbench
