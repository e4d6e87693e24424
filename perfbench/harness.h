// Shared plumbing of the end-to-end benchmark: command-line arguments,
// timing and order statistics, the run report (metrics, correctness
// checks, work-count self-test, paper-shape lines) and the one-line JSON
// result the benchmark contract asks for.
#ifndef DPC_PERFBENCH_HARNESS_H_
#define DPC_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "eval/bench_json.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for an
/// empty sample.
double Median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

struct Args {
  std::string workload;
  uint64_t seed = 0;  ///< 0 = the stand-in spec's own seed
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the per-run detail files (bench JSON, Chrome trace);
  /// empty = write none.
  std::string out_dir;
  /// Scratch directory for the serving store; must exist.
  std::string tmp_dir = ".";
};

/// Everything one run measures and checks. Metrics print as they are
/// recorded; the last stdout line is the contract's JSON object.
class Report {
 public:
  /// Records a metric. `samples` (when > 0) is the number of timed
  /// observations behind the value and is printed beside it.
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 0);
  /// One correctness check: counts as one attempted operation and, when
  /// !ok, one failed operation. Never aborts the run.
  bool Check(bool ok, const std::string& what);
  /// Operations that ran (solves, server requests) and how many failed.
  void Operations(uint64_t attempted, uint64_t failed);
  /// Work-count self-test: the two values of a deterministic count must
  /// be equal; a mismatch fails the whole benchmark.
  void SameCount(const std::string& what, double a, double b);
  /// A paper-shape line. Reported only; never gates.
  void Shape(const std::string& status, const std::string& line);
  /// Host and input stamp: printed and stored in the detail file.
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && self_test_ok_; }

  /// The contract's result object, one line.
  std::string ResultLine() const;
  /// The eval/bench_json.h document: host stamp as config, one result
  /// row holding every metric plus the span self times.
  bool WriteDetail(const std::string& path, const std::string& workload,
                   const std::map<std::string, double>& span_self_s) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool self_test_ok_ = true;
};

/// Per span name, the summed self time in seconds: each span's duration
/// minus the part of its interval covered by its direct children.
std::map<std::string, double> SpanSelfSeconds(
    const std::vector<dpc::obs::SpanRecord>& spans);

/// Writes `text` to `path`; returns false on I/O failure.
bool WriteText(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // DPC_PERFBENCH_HARNESS_H_
