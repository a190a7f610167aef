// Measurement plumbing: raw-sample statistics, the result line, and the
// in-memory span recorder of the traced run.
//
// Every time is taken here, outside the program, on raw samples. The
// program's own latency histograms (obs/metrics.h) report log2-bucket
// upper bounds, whose percentiles jump by factors of two between runs.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread, in seconds. On a kernel with paravirt
/// steal-time accounting this leaves out the time the host ran another
/// guest on the vCPU, as well as in-guest preemption; for a single-threaded
/// call that does no I/O it equals the call's wall time on an unshared core.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples; 0
/// when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}
double Mean(const std::vector<double>& samples);

/// \brief The metrics of one run, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// \brief Spans of the traced run: name, start, end, parent and the request
/// they belong to, kept in memory and written out once at the end.
class SpanRecorder {
 public:
  /// Opens a span; returns its id. `parent` is -1 for a root span.
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1);
  void End(int64_t id);
  /// Records a span timed elsewhere.
  int64_t Add(const char* name, uint64_t request, int64_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Durations (seconds) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;

  /// Tab-separated: id, parent, request, name, start_s, end_s (from the
  /// earliest start), self_s.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
             int64_t parent = -1)
      : rec_(rec), id_(rec->Begin(name, request, parent)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
