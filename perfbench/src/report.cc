#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // All the digits a double carries; NaN/inf cannot be written as JSON.
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int64_t SpanRecorder::Begin(const char* name, uint64_t request,
                            int64_t parent) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, request, parent, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) { spans_[id].end = Clock::now(); }

int64_t SpanRecorder::Add(const char* name, uint64_t request, int64_t parent,
                          Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, request, parent, start, end});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(std::chrono::duration<double>(s.end - s.start).count());
    }
  }
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Self time: a span's duration minus its direct children's.
  Clock::time_point origin = Clock::time_point::max();
  std::vector<double> self;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start);
    self.push_back(std::chrono::duration<double>(s.end - s.start).count());
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[s.parent] -= std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  std::fprintf(f, "id\tparent\trequest\tname\tstart_s\tend_s\tself_s\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%.9f\t%.9f\t%.9f\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 std::chrono::duration<double>(s.start - origin).count(),
                 std::chrono::duration<double>(s.end - origin).count(),
                 self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
