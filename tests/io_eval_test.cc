// data/io.h round-trips (CSV and binary), forged DPCB headers, and
// eval/ metric sanity (Rand index, ARI, cluster summaries).
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "data/generators.h"
#include "data/io.h"
#include "eval/cluster_stats.h"
#include "eval/rand_index.h"
#include "tests/test_util.h"

// The largest single allocation since the last reset: a forged DPCB
// header must be rejected before LoadBinary reserves for its point count.
static std::atomic<std::size_t> g_largest_allocation{0};

// Out of line like operator delete below, so gcc never pairs an inlined
// malloc() with a delete call (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The other three deletes route through this one. Kept out of line, so a
// call site never sees an inlined free() next to its operator new call.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

void TestIoRoundTrip() {
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 500;
  gen.dim = 3;
  gen.seed = 8;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  const std::string csv = "io_eval_test.csv";
  const std::string bin = "io_eval_test.bin";
  CHECK(dpc::data::SaveCsv(points, csv).ok());
  CHECK(dpc::data::SaveBinary(points, bin).ok());

  auto from_csv = dpc::data::LoadCsv(csv);
  CHECK(from_csv.ok());
  CHECK_EQ(from_csv.value().size(), points.size());
  CHECK_EQ(from_csv.value().dim(), points.dim());
  for (dpc::PointId i = 0; i < points.size(); ++i) {
    for (int d = 0; d < points.dim(); ++d) {
      // %.17g round-trips doubles exactly.
      CHECK_EQ(from_csv.value().Coord(i, d), points.Coord(i, d));
    }
  }

  auto from_bin = dpc::data::LoadBinary(bin);
  CHECK(from_bin.ok());
  CHECK(from_bin.value().raw() == points.raw());

  // Labeled CSV: one row per point, trailing label column.
  std::vector<int64_t> label(static_cast<size_t>(points.size()), 0);
  label[0] = dpc::kNoise;
  CHECK(dpc::data::SaveLabeledCsv(points, label, csv).ok());
  auto labeled = dpc::data::LoadCsv(csv);
  CHECK(labeled.ok());
  CHECK_EQ(labeled.value().dim(), points.dim() + 1);
  CHECK_EQ(static_cast<int64_t>(labeled.value().Coord(0, points.dim())),
           dpc::kNoise);

  CHECK(!dpc::data::LoadCsv("does_not_exist.csv").ok());
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// Writes a DPCB header claiming `n` points of dimension `dim`, then
// `rows` rows of 3 coordinates.
void WriteDpcb(const std::string& path, int64_t n, int64_t rows,
               int32_t dim = 3) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CHECK(f != nullptr);
  CHECK_EQ(std::fwrite(dpc::data::kBinaryMagic, 1, 4, f), 4u);
  CHECK_EQ(std::fwrite(&dim, sizeof(dim), 1, f), 1u);
  CHECK_EQ(std::fwrite(&n, sizeof(n), 1, f), 1u);
  const double row[3] = {1.0, 2.0, 3.0};
  for (int64_t i = 0; i < rows; ++i) {
    CHECK_EQ(std::fwrite(row, sizeof(double), 3, f), 3u);
  }
  CHECK_EQ(std::fclose(f), 0);
}

// A header whose point count the file cannot hold is an IoError, found
// before anything is reserved for it: the 16-byte header alone with
// n = 2^62 (which used to abort in vector::reserve), and a header
// claiming one point more than the 1000 rows that follow. An empty set
// of a huge dimension loads without allocating a row of that size.
void TestForgedBinaryHeader() {
  const std::string path = "io_eval_forged.bin";
  const struct {
    int64_t claimed;
    int64_t rows;
  } cases[] = {{int64_t{1} << 62, 0}, {1001, 1000}};
  for (const auto& c : cases) {
    WriteDpcb(path, c.claimed, c.rows);
    g_largest_allocation.store(0);
    const auto loaded = dpc::data::LoadBinary(path);
    const std::size_t largest = g_largest_allocation.load();
    CHECK(!loaded.ok());
    CHECK(loaded.status().code() == dpc::StatusCode::kIoError);
    CHECK(largest < 1000 * 3 * sizeof(double));  // no reserve for n points
  }
  WriteDpcb(path, 0, 0, std::numeric_limits<int32_t>::max());
  g_largest_allocation.store(0);
  const auto wide_empty = dpc::data::LoadBinary(path);
  CHECK(g_largest_allocation.load() < 1000 * 3 * sizeof(double));
  CHECK(wide_empty.ok());
  CHECK_EQ(wide_empty.value().size(), 0);

  // The same file with its header telling the truth loads.
  WriteDpcb(path, 1000, 1000);
  const auto honest = dpc::data::LoadBinary(path);
  CHECK(honest.ok());
  CHECK_EQ(honest.value().size(), 1000);
  std::remove(path.c_str());
}

// A leading header (or preamble) row is skipped; dimensionality is
// inferred from the first data row; later non-numeric rows still fail.
void TestCsvHeader() {
  const std::string path = "io_eval_header_test.csv";

  auto write = [&](const char* contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    CHECK(f != nullptr);
    std::fputs(contents, f);
    std::fclose(f);
  };

  write("x,y\n1,2\n3,4\n");
  auto with_header = dpc::data::LoadCsv(path);
  CHECK(with_header.ok());
  CHECK_EQ(with_header.value().size(), 2);
  CHECK_EQ(with_header.value().dim(), 2);
  CHECK_EQ(with_header.value().Coord(0, 0), 1.0);
  CHECK_EQ(with_header.value().Coord(1, 1), 4.0);

  // Headerless files load identically (the header skip must not consume
  // a data row).
  write("1,2\n3,4\n");
  auto headerless = dpc::data::LoadCsv(path);
  CHECK(headerless.ok());
  CHECK(headerless.value().raw() == with_header.value().raw());

  // Column names with numeric prefixes (strtod half-eats "nan..." and
  // "2d...") are still recognized as a header.
  write("nanoseconds,count\n1,2\n3,4\n");
  auto nan_header = dpc::data::LoadCsv(path);
  CHECK(nan_header.ok());
  CHECK(nan_header.value().raw() == with_header.value().raw());
  write("2d_x,2d_y\n1,2\n3,4\n");
  CHECK(dpc::data::LoadCsv(path).ok());

  // A header alone has no points; garbage after data is still an error,
  // and so are non-finite coordinates.
  write("x,y\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\nnot,numbers\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\nnan,4\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1,2\ninf,4\n");
  CHECK(!dpc::data::LoadCsv(path).ok());

  // Only ONE leading row may be skipped: a second unparsable row is an
  // error, never silent data loss.
  write("x,y\nalso,bad\n1,2\n");
  CHECK(!dpc::data::LoadCsv(path).ok());
  write("1x,2\nnot,num\n1,2\n");
  CHECK(!dpc::data::LoadCsv(path).ok());

  std::remove(path.c_str());
}

void TestMetrics() {
  const std::vector<int64_t> a = {0, 0, 0, 1, 1, 1, 2, 2, -1};
  // Identical partitions (under relabeling) score 1.0 on both metrics.
  const std::vector<int64_t> relabeled = {5, 5, 5, 3, 3, 3, 7, 7, 9};
  CHECK_NEAR(dpc::eval::RandIndex(a, relabeled), 1.0, 1e-12);
  CHECK_NEAR(dpc::eval::AdjustedRandIndex(a, relabeled), 1.0, 1e-12);

  // Known hand-computed case: merge clusters 1 and 2 of `a`.
  const std::vector<int64_t> merged = {0, 0, 0, 1, 1, 1, 1, 1, -1};
  // Disagreeing pairs: the 6 (cluster-1 x cluster-2) pairs; total C(9,2)=36.
  CHECK_NEAR(dpc::eval::RandIndex(a, merged), 30.0 / 36.0, 1e-12);
  CHECK(dpc::eval::AdjustedRandIndex(a, merged) < 1.0);
  CHECK(dpc::eval::AdjustedRandIndex(a, merged) > 0.0);

  // Chance-level agreement: ARI near 0, far below Rand.
  const std::vector<int64_t> left = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<int64_t> across = {0, 1, 0, 1, 0, 1, 0, 1};
  CHECK(std::fabs(dpc::eval::AdjustedRandIndex(left, across)) < 0.2);

  dpc::DpcResult result;
  result.label = {0, 0, 1, 1, 1, dpc::kNoise, dpc::kUnassigned};
  result.centers = {0, 2};
  const auto summary = dpc::eval::Summarize(result);
  CHECK_EQ(summary.num_points, 7);
  CHECK_EQ(summary.num_clusters, 2);
  CHECK_EQ(summary.num_noise, 1);
  CHECK_EQ(summary.num_unassigned, 1);
  CHECK_EQ(summary.largest_cluster, 3);
  CHECK(!dpc::eval::ToString(summary).empty());
}

}  // namespace

int main() {
  TestIoRoundTrip();
  TestCsvHeader();
  TestForgedBinaryHeader();
  TestMetrics();
  std::printf("io_eval_test OK\n");
  return 0;
}
