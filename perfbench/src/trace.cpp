#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Trace::Scope::Scope(Trace& trace, const char* name, std::size_t job)
    : trace_(trace), index_(trace.spans_.size()) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = trace.open_.empty() ? 0 : trace.open_.back() + 1;
  trace.spans_.push_back(s);
  trace.open_.push_back(index_);
  // Read the clock last so span bookkeeping is not charged to the span.
  trace.spans_[index_].start = trace.now();
}

Trace::Scope::~Scope() {
  trace_.spans_[index_].end = trace_.now();
  trace_.open_.pop_back();
}

double Trace::now() const {
  return std::chrono::duration<double>(clock::now() - epoch_).count();
}

std::map<std::string, double> Trace::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> Trace::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != 0) child[s.parent - 1] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  return out;
}

std::map<std::string, std::size_t> Trace::counts() const {
  std::map<std::string, std::size_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.end - s.start);
  return out;
}

void Trace::append_jsonl(const std::string& path,
                         const std::string& label) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"trace\":\"%s\",\"id\":%zu,\"parent\":%zu,\"job\":%zu,"
                 "\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n",
                 label.c_str(), i + 1, s.parent, s.job, s.name, s.start,
                 s.end);
  }
  std::fclose(f);
}

}  // namespace perfbench
