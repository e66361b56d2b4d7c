// hippo_check — command-line consistency checker and conflict reporter.
//
// Loads a schema/constraint script, optionally imports CSV data, and
// prints a conflict report: per-constraint violation counts with example
// witnesses, hypergraph statistics, the consistency verdict, and the
// number of repairs. Optionally dumps the conflict hypergraph as Graphviz.
//
// Usage:
//   hippo_check SCRIPT.sql [--csv table=path.csv ...] [--dot out.dot]
//               [--examples N] [--threads N]
//
// --threads N runs conflict detection with N worker threads (0 = one per
// hardware thread); the default is serial.
//
// Exit status: 0 consistent, 1 inconsistent, 2 error — so the tool slots
// into CI pipelines ("fail the build when the exported data develops
// conflicts") and into the long-running-activity scenario from the paper's
// introduction (run between updates to watch violations appear and drain).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "db/conflict_report.h"
#include "db/database.h"
#include "io/csv.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "hippo_check: %s\n", message.c_str());
  return 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hippo_check SCRIPT.sql [--csv table=path.csv ...] "
               "[--dot out.dot] [--examples N] [--threads N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string script_path;
  std::vector<std::pair<std::string, std::string>> csvs;  // (table, path)
  std::string dot_path;
  hippo::ConflictReportOptions report_options;
  std::optional<size_t> threads;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--csv") {
      if (++i >= argc) return Usage();
      std::string spec = argv[i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return Fail("--csv expects table=path, got: " + spec);
      }
      csvs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--dot") {
      if (++i >= argc) return Usage();
      dot_path = argv[i];
    } else if (arg == "--examples") {
      if (++i >= argc) return Usage();
      report_options.max_examples =
          static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    } else if (arg == "--threads") {
      if (++i >= argc) return Usage();
      threads = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown option: " + arg);
    } else if (script_path.empty()) {
      script_path = arg;
    } else {
      return Usage();
    }
  }
  if (script_path.empty()) return Usage();

  std::ifstream in(script_path);
  if (!in) return Fail("cannot open script: " + script_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();

  hippo::Database db;
  if (threads.has_value()) {
    hippo::DetectOptions detect;
    detect.num_threads = *threads;  // 0 = all hardware threads
    db.SetDetectOptions(detect);
  }
  hippo::Status st = db.Execute(buffer.str());
  if (!st.ok()) return Fail("script failed: " + st.ToString());

  for (const auto& [table, path] : csvs) {
    auto imported = hippo::ImportCsvFile(&db, table, path);
    if (!imported.ok()) {
      return Fail("importing " + path + ": " +
                  imported.status().ToString());
    }
    std::printf("imported %zu rows into %s (%zu new)\n",
                imported.value().rows_read, table.c_str(),
                imported.value().rows_inserted);
  }

  auto view = db.View();
  if (!view.ok()) return Fail(view.status().ToString());
  auto report = hippo::GenerateConflictReport(view.value(), report_options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("%s", report.value().c_str());

  if (!dot_path.empty()) {
    std::ofstream dot(dot_path, std::ios::trunc);
    if (!dot) return Fail("cannot write " + dot_path);
    dot << view.value().hypergraph().ToDot();
    std::printf("hypergraph written to %s\n", dot_path.c_str());
  }
  return view.value().IsConsistent() ? 0 : 1;
}
