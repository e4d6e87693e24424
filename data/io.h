// Point-set persistence: headerless CSV (interoperable with plotting
// tools) and a little-endian binary format ("DPCB") for large dumps. A
// labeled-CSV writer pairs coordinates with cluster ids for external
// visualization.
#ifndef DPC_DATA_IO_H_
#define DPC_DATA_IO_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/dpc.h"
#include "core/status.h"

namespace dpc::data {

inline Status SaveCsv(const PointSet& points, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  const PointId n = points.size();
  const int dim = points.dim();
  for (PointId i = 0; i < n; ++i) {
    const double* p = points[i];
    for (int d = 0; d < dim; ++d) {
      std::fprintf(f, d + 1 < dim ? "%.17g," : "%.17g\n", p[d]);
    }
  }
  if (std::fclose(f) != 0) return Status::IoError("error closing " + path);
  return Status::Ok();
}

inline Status SaveLabeledCsv(const PointSet& points,
                             const std::vector<int64_t>& label,
                             const std::string& path) {
  if (static_cast<PointId>(label.size()) != points.size()) {
    return Status::InvalidArgument("label count does not match point count");
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  const PointId n = points.size();
  const int dim = points.dim();
  for (PointId i = 0; i < n; ++i) {
    const double* p = points[i];
    for (int d = 0; d < dim; ++d) std::fprintf(f, "%.17g,", p[d]);
    std::fprintf(f, "%lld\n", static_cast<long long>(label[static_cast<size_t>(i)]));
  }
  if (std::fclose(f) != 0) return Status::IoError("error closing " + path);
  return Status::Ok();
}

inline constexpr char kBinaryMagic[4] = {'D', 'P', 'C', 'B'};

inline Status SaveBinary(const PointSet& points, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  const int32_t dim = points.dim();
  const int64_t n = points.size();
  bool ok = std::fwrite(kBinaryMagic, 1, 4, f) == 4;
  ok = ok && std::fwrite(&dim, sizeof(dim), 1, f) == 1;
  ok = ok && std::fwrite(&n, sizeof(n), 1, f) == 1;
  const size_t count = points.raw().size();
  ok = ok && std::fwrite(points.raw().data(), sizeof(double), count, f) == count;
  if (std::fclose(f) != 0 || !ok) return Status::IoError("error writing " + path);
  return Status::Ok();
}

inline StatusOr<PointSet> LoadBinary(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  char magic[4];
  int32_t dim = 0;
  int64_t n = 0;
  if (std::fread(magic, 1, 4, f) != 4 || std::memcmp(magic, kBinaryMagic, 4) != 0 ||
      std::fread(&dim, sizeof(dim), 1, f) != 1 ||
      std::fread(&n, sizeof(n), 1, f) != 1 || dim <= 0 || n < 0) {
    std::fclose(f);
    return Status::IoError(path + " is not a DPCB point file");
  }
  // The header's n is untrusted: check that the rest of the file can hold
  // n rows before reserving for them (a forged n must not abort the
  // process in the allocator). Dividing instead of multiplying cannot
  // overflow: dim * sizeof(double) < 2^34.
  const long header_end = std::ftell(f);
  const bool sized = header_end >= 0 && std::fseek(f, 0, SEEK_END) == 0;
  const long file_end = sized ? std::ftell(f) : -1;
  const int64_t row_bytes = int64_t{dim} * int64_t{sizeof(double)};
  if (file_end < header_end || std::fseek(f, header_end, SEEK_SET) != 0 ||
      n > (file_end - header_end) / row_bytes) {
    std::fclose(f);
    return Status::IoError(path + " is truncated: header claims " +
                           std::to_string(n) + " points of dim " +
                           std::to_string(dim));
  }
  PointSet points(dim);
  points.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    double* row = points.AddUninitialized();
    if (std::fread(row, sizeof(double), static_cast<size_t>(dim), f) !=
        static_cast<size_t>(dim)) {
      std::fclose(f);
      return Status::IoError(path + " is truncated");
    }
  }
  std::fclose(f);
  return points;
}

/// CSV of coordinates; the first data row fixes the dimensionality. A
/// first row that is not fully numeric (e.g. "x,y,z", or column names
/// with numeric prefixes like "2d_x" or "nanoseconds") is treated as a
/// header and skipped, so exports from pandas/spreadsheets load without
/// preprocessing. Exactly one row can be skipped this way, and the
/// inherent ambiguity lives there too: a *corrupt first* row is
/// indistinguishable from a header and is skipped like one. From the
/// first data row on, non-numeric and non-finite (nan/inf) fields are
/// errors with their line number, never silent data loss.
inline StatusOr<PointSet> LoadCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  PointSet points(1);
  std::vector<double> row;
  std::string line;
  char buf[4096];
  int dim = 0;
  int64_t line_no = 0;
  bool eof = false;
  bool header_allowed = true;
  while (!eof) {
    line.clear();
    while (true) {
      if (std::fgets(buf, sizeof(buf), f) == nullptr) {
        eof = true;
        break;
      }
      line += buf;
      if (!line.empty() && line.back() == '\n') break;
    }
    ++line_no;
    // Strip trailing newline/CR and skip blanks.
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    row.clear();
    const char* s = line.c_str();
    bool header = false;
    while (*s != '\0') {
      char* end = nullptr;
      const double v = std::strtod(s, &end);
      // Non-finite parses catch both literal nan/inf fields and column
      // names strtod half-eats ("nanoseconds" -> nan + "oseconds").
      if (end == s || !std::isfinite(v)) {
        // A failure on the first non-blank row marks the whole line as
        // the (single skippable) header; any later failure is an error.
        if (dim == 0 && header_allowed) {
          header = true;
          break;
        }
        std::fclose(f);
        return Status::IoError(path + ":" + std::to_string(line_no) +
                               ": not a finite number: '" + s + "'");
      }
      row.push_back(v);
      s = end;
      while (*s == ',' || *s == ' ' || *s == '\t') ++s;
    }
    if (header) {
      header_allowed = false;
      continue;
    }
    if (dim == 0) {
      dim = static_cast<int>(row.size());
      points = PointSet(dim);
    } else if (static_cast<int>(row.size()) != dim) {
      std::fclose(f);
      return Status::IoError(path + ":" + std::to_string(line_no) + ": expected " +
                             std::to_string(dim) + " columns, got " +
                             std::to_string(row.size()));
    }
    points.Add(row.data());
  }
  std::fclose(f);
  if (points.size() == 0) return Status::IoError(path + " contains no points");
  return points;
}

}  // namespace dpc::data

#endif  // DPC_DATA_IO_H_
