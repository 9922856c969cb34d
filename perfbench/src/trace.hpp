// In-memory span recorder for the traced runs.
//
// A span is (name, start, end, parent, job): spans of one evaluated
// candidate or wire request share a job id, and a span opened while another
// is open on the same Trace becomes its child. Spans are recorded by the
// benchmark around its calls into each layer; they stay in memory and are
// written out as JSON lines when the run ends. One Trace per thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::size_t job = 0;
  std::size_t parent = 0;   ///< index + 1 of the parent span, 0 = root
  double start = 0.0;       ///< seconds since the trace's epoch
  double end = 0.0;
};

class Trace {
 public:
  using clock = std::chrono::steady_clock;

  Trace() : epoch_(clock::now()) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* name, std::size_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    std::size_t index_;
  };

  [[nodiscard]] Scope scope(const char* name, std::size_t job) {
    return Scope(*this, name, job);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now() const;

  /// Σ duration per span name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;
  /// Σ self time per span name: duration minus the time covered by the
  /// span's direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Span count per name.
  [[nodiscard]] std::map<std::string, std::size_t> counts() const;
  /// Durations of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Appends one JSON object per span to `path`.
  void append_jsonl(const std::string& path, const std::string& label) const;

 private:
  clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
