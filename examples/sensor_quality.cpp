// Sensor data quality: duplicate feeds, aggregate dashboards, and certain
// bounds.
//
// Two gateways forward readings from the same sensor fleet; after a network
// partition they disagree on some (sensor, hour) readings. The fleet
// dashboard needs per-sensor statistics NOW, not after reconciliation:
//
//   * plain GROUP BY gives the usual dashboard — but it silently mixes the
//     contradictory readings;
//   * grouped range-consistent aggregation bounds each sensor's statistics
//     across every way the disagreement could be resolved;
//   * the conflict report pinpoints what the gateways disagree on;
//   * certain (consistent) readings are exported to CSV for downstream use.
//
// Build & run:  ./build/examples/sensor_quality
#include <cstdio>

#include "db/conflict_report.h"
#include "db/database.h"
#include "io/csv.h"

int main() {
  hippo::Database db;

  hippo::Status st = db.Execute(R"sql(
    CREATE TABLE readings (sensor VARCHAR, hour INTEGER, kwh INTEGER);
    -- One true reading per sensor-hour, whichever gateway reported it.
    CREATE CONSTRAINT one_reading FD ON readings (sensor, hour -> kwh);

    -- Gateway A's feed.
    INSERT INTO readings VALUES
      ('meter-1', 9, 40), ('meter-1', 10, 42), ('meter-1', 11, 45),
      ('meter-2', 9, 70), ('meter-2', 10, 71);
    -- Gateway B re-sent the partition window; two readings disagree.
    INSERT INTO readings VALUES
      ('meter-1', 10, 42),   -- agrees: set semantics, no duplicate
      ('meter-1', 11, 49),   -- DISAGREES with gateway A
      ('meter-2', 10, 65),   -- DISAGREES
      ('meter-2', 11, 73)    -- new hour, only B saw it
  )sql");
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 1. The naive dashboard: plain SQL aggregation over everything.
  auto dashboard = db.Query(
      "SELECT sensor, COUNT(*) AS readings, SUM(kwh) AS total, "
      "MAX(kwh) AS peak FROM readings GROUP BY sensor ORDER BY sensor");
  std::printf("-- naive dashboard (mixes contradictory readings) --\n%s\n",
              dashboard.value().ToString().c_str());

  // 2. What do the gateways actually disagree on?
  auto report = hippo::GenerateConflictReport(db.View().value());
  std::printf("%s\n", report.value().c_str());

  // 3. Certain bounds per sensor: the total consumption interval across
  //    every resolution of the disagreement (closed form — the grouping
  //    key is a prefix of the FD determinant).
  std::printf("-- certain per-sensor totals (every reconciliation) --\n");
  auto totals = db.GroupedRangeConsistentAggregate(
      "readings", hippo::cqa::AggFn::kSum, "kwh", {"sensor"});
  for (const hippo::cqa::GroupRange& g : totals.value()) {
    std::printf("  %s: SUM(kwh) in %s\n", g.group[0].ToString().c_str(),
                g.range.ToString().c_str());
  }
  auto peaks = db.GroupedRangeConsistentAggregate(
      "readings", hippo::cqa::AggFn::kMax, "kwh", {"sensor"});
  std::printf("-- certain per-sensor peaks --\n");
  for (const hippo::cqa::GroupRange& g : peaks.value()) {
    std::printf("  %s: MAX(kwh) in %s\n", g.group[0].ToString().c_str(),
                g.range.ToString().c_str());
  }

  // 4. Export only the *certain* readings for downstream consumers.
  auto certain = db.ConsistentAnswers(
      "SELECT * FROM readings ORDER BY sensor, hour");
  std::printf("\n-- certain readings (%zu of %zu) --\n%s",
              certain.value().NumRows(),
              db.Query("SELECT * FROM readings").value().NumRows(),
              certain.value().ToString().c_str());
  st = hippo::ExportCsvFile(certain.value(), "certain_readings.csv");
  if (st.ok()) {
    std::printf("exported to certain_readings.csv\n");
  }
  return 0;
}
