// Assertion macros for the dependency-free ctest units, plus the shared
// bit-identity helpers (dpc::test) that every determinism-style test
// compares results with. A failed CHECK prints the expression and
// location and exits non-zero, which ctest reports as the test failure.
#ifndef DPC_TESTS_TEST_UTIL_H_
#define DPC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/dpc.h"

#define CHECK(cond)                                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                                   \
      std::exit(1);                                                          \
    }                                                                        \
  } while (0)

#define CHECK_EQ(a, b)                                                        \
  do {                                                                        \
    const auto va = (a);                                                      \
    const auto vb = (b);                                                      \
    if (!(va == vb)) {                                                        \
      std::fprintf(stderr,                                                    \
                   "CHECK_EQ failed at %s:%d: %s == %s (%.17g vs %.17g)\n",   \
                   __FILE__, __LINE__, #a, #b, static_cast<double>(va),       \
                   static_cast<double>(vb));                                  \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

#define CHECK_NEAR(a, b, tol)                                                 \
  do {                                                                        \
    const double va = (a);                                                    \
    const double vb = (b);                                                    \
    if (!(std::fabs(va - vb) <= (tol))) {                                     \
      std::fprintf(stderr,                                                    \
                   "CHECK_NEAR failed at %s:%d: |%s - %s| = %.17g > %.17g\n", \
                   __FILE__, __LINE__, #a, #b, std::fabs(va - vb),            \
                   static_cast<double>(tol));                                 \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

namespace dpc::test {

/// Exact (bitwise) label equality — the form every determinism assertion
/// in this suite means by "identical".
inline bool BitIdenticalLabels(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  return a == b;
}

inline bool BitIdenticalLabels(const DpcResult& a, const DpcResult& b) {
  return BitIdenticalLabels(a.label, b.label);
}

/// Asserts two results are bit-identical in every field the library's
/// determinism contract covers: labels, densities, dependent distances,
/// dependency pointers, and centers. Exact double comparison is the
/// point — "close" is a bug here.
inline void AssertSolutionsEqual(const DpcResult& a, const DpcResult& b) {
  CHECK(a.label == b.label);
  CHECK(a.rho == b.rho);
  CHECK(a.delta == b.delta);
  CHECK(a.dependency == b.dependency);
  CHECK(a.centers == b.centers);
}

/// Integer lattice (spacing 10) with every site stored `copies` times,
/// copy-major (id = copy * sites + site). Squared distances are exact
/// integers, so queries meet exact-distance ties on every trial: the
/// query's own duplicates at distance 0, lattice neighbors at equal
/// offsets.
inline PointSet LatticeWithDuplicates(int dim, int side, int copies) {
  int sites = 1;
  for (int d = 0; d < dim; ++d) sites *= side;
  PointSet points(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (int copy = 0; copy < copies; ++copy) {
    for (int site = 0; site < sites; ++site) {
      int rest = site;
      for (int d = 0; d < dim; ++d) {
        p[static_cast<size_t>(d)] = 10.0 * (rest % side);
        rest /= side;
      }
      points.Add(p.data());
    }
  }
  return points;
}

}  // namespace dpc::test

#endif  // DPC_TESTS_TEST_UTIL_H_
