#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  if (samples > 0) {
    std::printf("metric %-36s %14.6f %-6s (n=%lld)\n", name.c_str(), value,
                unit.c_str(), static_cast<long long>(samples));
  } else {
    std::printf("metric %-36s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  metrics_.push_back({name, value, unit});
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::Operations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::SameCount(const std::string& what, double a, double b) {
  if (a == b) {
    std::printf("self-test %-34s %.17g == %.17g\n", what.c_str(), a, b);
    return;
  }
  self_test_ok_ = false;
  std::printf("SELF-TEST FAILED: %s %.17g != %.17g\n", what.c_str(), a, b);
}

void Report::Shape(const std::string& status, const std::string& line) {
  std::printf("%-4s %s\n", status.c_str(), line.c_str());
}

void Report::Stamp(const std::string& key, const std::string& value) {
  std::printf("stamp %s=%s\n", key.c_str(), value.c_str());
  stamp_.emplace_back(key, value);
}

void Report::Stamp(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Stamp(key, std::string(buf));
}

std::string Report::ResultLine() const {
  // Sequential appends: gcc-12 raises a spurious -Wrestrict on chained
  // operator+ with literals (see eval/bench_json.h).
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted_);
  out += ", \"failed\": ";
  out += std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += '"';
    out += dpc::eval::JsonEscape(metrics_[i].name);
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += dpc::eval::JsonEscape(metrics_[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

bool Report::WriteDetail(const std::string& path, const std::string& workload,
                         const std::map<std::string, double>& span_self_s) const {
  dpc::eval::BenchJsonWriter writer("perfbench");
  for (const auto& [key, value] : stamp_) writer.AddConfig(key, value);
  writer.AddConfig("attempted", static_cast<int64_t>(attempted_));
  writer.AddConfig("failed", static_cast<int64_t>(failed_));
  writer.BeginResult(workload);
  for (const Entry& e : metrics_) writer.AddMetric(e.name, e.value);
  for (const auto& [name, seconds] : span_self_s) {
    writer.AddMetric("span_self_s." + name, seconds);
  }
  return writer.WriteFile(path);
}

std::map<std::string, double> SpanSelfSeconds(
    const std::vector<dpc::obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const dpc::obs::SpanRecord*>> kids;
  for (const auto& span : spans) kids[span.parent].push_back(&span);
  std::map<std::string, double> self;
  for (const auto& span : spans) {
    // Union of the direct children's intervals, clipped to the parent:
    // children recorded from pool workers may overlap one another.
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    if (const auto it = kids.find(span.id); it != kids.end()) {
      for (const auto* child : it->second) {
        const uint64_t lo = std::max(child->start_ns, span.start_ns);
        const uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t reach = span.start_ns;
    for (const auto& [lo, hi] : cover) {
      const uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
