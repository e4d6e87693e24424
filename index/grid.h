// Uniform grid over a PointSet — the substrate of the paper's grid-based
// approximations (Approx-DPC §4, S-Approx-DPC §5). Cells are hypercubes
// of a caller-chosen side; with side = d_cut / sqrt(dim) the cell
// diameter is bounded by d_cut, so any two points sharing a cell are
// within d_cut of each other — the property both algorithms lean on.
//
// Cells are keyed by their exact integer coordinates (hash collisions
// fall back to coordinate equality), so distant cells can never silently
// merge. Cells are stored in first-touch (= point-id) order and each
// cell's members ascend, which keeps every consumer deterministic
// regardless of thread count.
//
// Build computes every point's integer cell coordinates and their hash on
// the context's pool, then makes one serial first-touch pass that assigns
// CellIds through a flat open-addressing table and counts each cell's
// population, and fills every member list at its exact size. The grid is
// the same at any thread count.
#ifndef DPC_INDEX_GRID_H_
#define DPC_INDEX_GRID_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/dpc.h"
#include "parallel/parallel_for.h"

namespace dpc {

/// A grid cell's position in first-touch order — the unit the §4.5 LPT
/// order hands out to threads.
using CellId = int64_t;

class UniformGrid {
 public:
  UniformGrid() = default;
  UniformGrid(const PointSet& points, double cell_side,
              const ExecutionContext* ctx = nullptr) {
    Build(points, cell_side, ctx);
  }

  /// (Re)builds over `points`. A context with several threads computes
  /// the cell keys on its pool once n reaches kMinParallelIterations;
  /// null computes them serially.
  void Build(const PointSet& points, double cell_side,
             const ExecutionContext* ctx = nullptr) {
    cell_side_ = cell_side;
    const PointId n = points.size();
    const size_t dim = static_cast<size_t>(points.dim());

    // keys: dim integer coordinates per point; cell_of[i]: point i's key
    // hash, until the first-touch pass replaces it with i's CellId.
    std::vector<int64_t> keys(static_cast<size_t>(n) * dim);
    std::vector<uint64_t> cell_of(static_cast<size_t>(n));
    const auto compute_keys = [&](PointId begin, PointId end) {
      for (PointId i = begin; i < end; ++i) {
        int64_t* key = keys.data() + static_cast<size_t>(i) * dim;
        uint64_t h = 0;
        for (size_t d = 0; d < dim; ++d) {
          key[d] = static_cast<int64_t>(std::floor(points[i][d] / cell_side));
          h = (h ^ static_cast<uint64_t>(key[d])) * 0x9e3779b97f4a7c15ULL;
          h ^= h >> 32;
        }
        cell_of[static_cast<size_t>(i)] = h;
      }
    };
    if (ctx != nullptr && ctx->threads() > 1 &&
        n >= internal::kMinParallelIterations) {
      const int64_t tasks = 4 * static_cast<int64_t>(ctx->threads());
      const PointId chunk = (n + tasks - 1) / tasks;
      ParallelTasks(*ctx, tasks, [&](int64_t t) {
        compute_keys(std::min(n, t * chunk), std::min(n, (t + 1) * chunk));
      });
    } else {
      compute_keys(0, n);
    }

    // First-touch pass over a linear-probing table of CellIds (-1 =
    // empty), kept at most half full. A cell's key is the keys row of its
    // first point.
    std::vector<PointId> first;           // per cell: first-touch point
    std::vector<uint64_t> cell_hash;      // per cell: its key hash
    std::vector<PointId> population;      // per cell: member count
    std::vector<CellId> table;
    const auto place = [&](CellId cell) {
      size_t slot = cell_hash[static_cast<size_t>(cell)] & (table.size() - 1);
      while (table[slot] >= 0) slot = (slot + 1) & (table.size() - 1);
      table[slot] = cell;
    };
    table.assign(std::bit_ceil(std::max<size_t>(64, static_cast<size_t>(n) / 8)),
                 CellId{-1});
    for (PointId i = 0; i < n; ++i) {
      const uint64_t h = cell_of[static_cast<size_t>(i)];
      const int64_t* key = keys.data() + static_cast<size_t>(i) * dim;
      size_t slot = h & (table.size() - 1);
      CellId cell = table[slot];
      while (cell >= 0 &&
             (cell_hash[static_cast<size_t>(cell)] != h ||
              !std::equal(key, key + dim,
                          keys.data() + static_cast<size_t>(
                                            first[static_cast<size_t>(cell)]) *
                                            dim))) {
        slot = (slot + 1) & (table.size() - 1);
        cell = table[slot];
      }
      if (cell < 0) {
        cell = static_cast<CellId>(first.size());
        first.push_back(i);
        cell_hash.push_back(h);
        population.push_back(0);
        table[slot] = cell;
        if (2 * first.size() > table.size()) {
          table.assign(2 * table.size(), CellId{-1});
          for (CellId c = 0; c <= cell; ++c) place(c);
        }
      }
      ++population[static_cast<size_t>(cell)];
      cell_of[static_cast<size_t>(i)] = static_cast<uint64_t>(cell);
    }

    cells_ = std::vector<std::vector<PointId>>(first.size());
    for (size_t c = 0; c < cells_.size(); ++c) {
      cells_[c].reserve(static_cast<size_t>(population[c]));
    }
    for (PointId i = 0; i < n; ++i) {
      cells_[cell_of[static_cast<size_t>(i)]].push_back(i);
    }
  }

  CellId num_cells() const { return static_cast<CellId>(cells_.size()); }
  double cell_side() const { return cell_side_; }
  /// The point ids in `cell`, ascending.
  const std::vector<PointId>& members(CellId cell) const {
    return cells_[static_cast<size_t>(cell)];
  }

  /// The cell-local point ordering the SoA hot path reorders by
  /// (core/soa.h): `order` concatenates every cell's members (so points
  /// sharing a cell are contiguous), and cell c spans positions
  /// [cell_begin[c], cell_begin[c + 1]) of that order. Build order is
  /// first-touch, so the ordering — like everything else about the grid
  /// — is deterministic for a fixed input.
  struct Ordering {
    std::vector<PointId> order;       ///< SoA position -> point id
    std::vector<PointId> cell_begin;  ///< num_cells() + 1 span offsets
  };

  Ordering CellOrdering() const {
    Ordering out;
    size_t total = 0;
    for (const auto& members : cells_) total += members.size();
    out.order.reserve(total);
    out.cell_begin.reserve(cells_.size() + 1);
    out.cell_begin.push_back(0);
    for (const auto& members : cells_) {
      out.order.insert(out.order.end(), members.begin(), members.end());
      out.cell_begin.push_back(static_cast<PointId>(out.order.size()));
    }
    return out;
  }

  /// §4.5 cost-model hook for the LPT scheduler: the per-point phases do
  /// work proportional to a cell's population, so cost(c) = |P(c)|.
  /// Feed this straight into LptSchedule / ParallelForWithCosts.
  std::vector<double> CellCosts() const {
    std::vector<double> costs;
    costs.reserve(cells_.size());
    for (const auto& members : cells_) {
      costs.push_back(static_cast<double>(members.size()));
    }
    return costs;
  }

  size_t MemoryBytes() const {
    size_t bytes = cells_.capacity() * sizeof(std::vector<PointId>);
    for (const auto& members : cells_) {
      bytes += members.capacity() * sizeof(PointId);
    }
    return bytes;
  }

 private:
  double cell_side_ = 0.0;
  std::vector<std::vector<PointId>> cells_;  ///< members per CellId
};

}  // namespace dpc

#endif  // DPC_INDEX_GRID_H_
