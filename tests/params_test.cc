// DpcParams validation and the Status/StatusOr vocabulary.
#include <cstdio>
#include <string>

#include "core/dpc.h"
#include "core/status.h"
#include "tests/test_util.h"

int main() {
  dpc::DpcParams params;
  params.d_cut = 100.0;
  params.rho_min = 5.0;
  params.delta_min = 500.0;
  CHECK(params.Validate().ok());

  dpc::DpcParams bad = params;
  bad.d_cut = 0.0;
  CHECK(bad.Validate().code() == dpc::StatusCode::kInvalidArgument);

  bad = params;
  bad.delta_min = 100.0;  // must exceed d_cut
  CHECK(!bad.Validate().ok());

  bad = params;
  bad.rho_min = -1.0;
  CHECK(!bad.Validate().ok());

  bad = params;
  bad.epsilon = 0.0;
  CHECK(!bad.Validate().ok());

  // ResolveContext: an unspecified thread count resolves to all hardware
  // threads, an explicit one is kept; both share the caller's pool.
  {
    const dpc::ExecutionContext unspecified;  // num_threads() == 0
    const dpc::ExecutionContext resolved = dpc::ResolveContext(unspecified);
    CHECK_EQ(resolved.threads(), dpc::HardwareThreads());
    CHECK(resolved.shared_pool().get() == unspecified.shared_pool().get());
    CHECK_EQ(dpc::ResolveContext(dpc::ExecutionContext(5)).threads(), 5);
  }

  const dpc::Status err = dpc::Status::IoError("disk on fire");
  CHECK(!err.ok());
  CHECK(err.ToString() == "IO_ERROR: disk on fire");
  CHECK(dpc::Status::Ok().ToString() == "OK");

  dpc::StatusOr<std::string> good(std::string("value"));
  CHECK(good.ok());
  CHECK_EQ(good.value().size(), std::string("value").size());
  dpc::StatusOr<std::string> failed(dpc::Status::NotFound("nope"));
  CHECK(!failed.ok());
  CHECK(failed.status().code() == dpc::StatusCode::kNotFound);

  // PointSet basics used throughout: size/dim bookkeeping and row access.
  dpc::PointSet points(2);
  const double p0[2] = {1.0, 2.0};
  const double p1[2] = {3.0, 4.0};
  points.Add(p0);
  points.Add(p1);
  CHECK_EQ(points.size(), 2);
  CHECK_EQ(points.Coord(1, 0), 3.0);
  CHECK_EQ(points[1][1], 4.0);

  std::printf("params_test OK\n");
  return 0;
}
