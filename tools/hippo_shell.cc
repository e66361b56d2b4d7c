// hippo_shell — an interactive SQL shell over an inconsistent database.
//
// This is the live demonstration of the EDBT'04 demo paper in tool form:
// load data and constraints, flip between answering modes, and inspect the
// conflict hypergraph and repairs of the working instance.
//
//   $ ./build/tools/hippo_shell               # interactive
//   $ ./build/tools/hippo_shell < script.sql  # batch
//
// The shell fronts a service::QueryService rather than a bare Database:
// every write goes through the asynchronous group-commit pipeline
// (CommitAsync) and reports the epoch it published at plus the size of the
// group it coalesced into. Every read — SELECTs in all five modes, EXPLAIN,
// repair counting, aggregates, the conflict report — evaluates against the
// current immutable snapshot. Only the configuration commands
// (.incremental, .threads) reach the mutable master, through the service's
// serialized admin escape hatch.
//
// Statements end with ';'. Meta commands start with '.':
//   .mode plain|cqa|core|rewriting|allrepairs   answering mode for SELECTs
//   .stats on|off                               print pipeline statistics
//   .conflicts                                  hypergraph summary
//   .mem                                        catalog/hypergraph memory,
//                                               bytes the last commit wrote
//   .constraints                                list declared constraints
//   .repairs [limit]                            count repairs
//   .agg <fn> <table> [column]                  range-consistent aggregate
//   .groupagg <fn> <table> <column|-> <group-col> grouped range aggregate
//   .report                                     full conflict report
//   .incremental on|off                         hypergraph maintenance mode
//   .threads [N]                                detection/prover threads
//                                               (0 = all hardware threads)
//   .route auto|cf|rewrite|prover               cqa-mode route selection
//   .serve                                      commit-pipeline statistics
//   .tables                                     list tables and sizes
//   .help                                       this text
//   .quit
//
// The `--threads N` command-line flag sets the same knob before the first
// statement runs: it is ServiceOptions::threads (read pool and commit-path
// detection) and each query's HippoOptions::num_threads (prover loop).
//
// DML (INSERT/DELETE/UPDATE) and COPY t FROM/TO 'file.csv' run like any
// other statement.
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "benchutil/report.h"
#include "common/str_util.h"
#include "db/conflict_report.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/snapshot.h"

namespace hippo::shell {
namespace {

using service::CommitReceipt;
using service::QueryService;
using service::ServiceOptions;
using service::SnapshotPtr;

enum class Mode { kPlain, kCqa, kCore, kRewriting, kAllRepairs };

/// Strict non-negative integer parse (no partial consumption); false on
/// malformed input so a typo cannot throw out of the REPL or kill the
/// process during --threads handling.
bool ParseCount(const std::string& s, size_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<size_t>(v);
  return true;
}

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kPlain:
      return "plain";
    case Mode::kCqa:
      return "cqa";
    case Mode::kCore:
      return "core";
    case Mode::kRewriting:
      return "rewriting";
    case Mode::kAllRepairs:
      return "allrepairs";
  }
  return "?";
}

ServiceOptions ShellOptions(size_t threads) {
  ServiceOptions options;
  // threads == 1 (the shell default) reproduces the historical
  // single-threaded shell behavior exactly.
  options.threads = threads;
  return options;
}

class Shell {
 public:
  explicit Shell(size_t threads)
      : threads_(threads), service_(ShellOptions(threads)) {}

  int Run(std::istream& in, bool interactive) {
    std::string buffer;
    std::string line;
    if (interactive) Prompt(buffer);
    while (std::getline(in, line)) {
      bool buffer_blank =
          buffer.find_first_not_of(" \t\n") == std::string::npos;
      if (buffer_blank && !line.empty() && line[0] == '.') {
        buffer.clear();
        if (!MetaCommand(line)) return 0;
        if (interactive) Prompt(buffer);
        continue;
      }
      buffer += line;
      buffer += "\n";
      // Execute every complete ';'-terminated statement in the buffer.
      size_t pos;
      while ((pos = buffer.find(';')) != std::string::npos) {
        std::string stmt = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        RunStatement(stmt);
      }
      if (interactive) Prompt(buffer);
    }
    if (!buffer.empty() &&
        buffer.find_first_not_of(" \t\n") != std::string::npos) {
      RunStatement(buffer);
    }
    return 0;
  }

 private:
  void Prompt(const std::string& buffer) {
    // Whitespace left over from a completed statement is not a continuation.
    bool continuing =
        buffer.find_first_not_of(" \t\n") != std::string::npos;
    std::printf(continuing ? "   ...> " : "hippo> ");
    std::fflush(stdout);
  }

  static std::vector<std::string> Split(const std::string& s) {
    std::istringstream iss(s);
    std::vector<std::string> out;
    std::string tok;
    while (iss >> tok) out.push_back(tok);
    return out;
  }

  /// Returns false to quit.
  bool MetaCommand(const std::string& line) {
    std::vector<std::string> args = Split(line);
    const std::string& cmd = args[0];
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      std::printf(
          ".mode plain|cqa|core|rewriting|allrepairs   answering mode\n"
          ".stats on|off        pipeline statistics\n"
          ".conflicts           hypergraph summary\n"
          ".mem                 resident memory; bytes the last commit wrote\n"
          ".constraints         declared constraints\n"
          ".repairs [limit]     number of repairs\n"
          ".agg <fn> <table> [column]   range-consistent aggregate\n"
          ".groupagg <fn> <table> <column|-> <group-col>   grouped range\n"
          ".report              full conflict report\n"
          ".incremental on|off  incremental hypergraph maintenance\n"
          ".threads [N]         detection/prover threads (0 = all cores)\n"
          ".route auto|cf|rewrite|prover   cqa-mode route selection\n"
          ".explain SELECT ...  show plan / envelope / rewriting / route\n"
          ".explain analyze SELECT ...  execute and show per-operator "
          "timings\n"
          ".serve               commit-pipeline statistics\n"
          ".metrics             Prometheus-style dump of shell + service "
          "metrics\n"
          ".tables              tables and row counts\n"
          ".quit\n"
          "EXPLAIN [ANALYZE] SELECT ...; also works as a statement\n");
      return true;
    }
    if (cmd == ".mode") {
      if (args.size() != 2) {
        std::printf("mode: %s\n", ModeName(mode_));
        return true;
      }
      std::string m = ToLower(args[1]);
      if (m == "plain") {
        mode_ = Mode::kPlain;
      } else if (m == "cqa" || m == "hippo") {
        mode_ = Mode::kCqa;
      } else if (m == "core") {
        mode_ = Mode::kCore;
      } else if (m == "rewriting") {
        mode_ = Mode::kRewriting;
      } else if (m == "allrepairs") {
        mode_ = Mode::kAllRepairs;
      } else {
        std::printf("unknown mode: %s\n", args[1].c_str());
      }
      return true;
    }
    if (cmd == ".stats") {
      stats_enabled_ = args.size() > 1 && ToLower(args[1]) == "on";
      std::printf("stats: %s\n", stats_enabled_ ? "on" : "off");
      return true;
    }
    if (cmd == ".route") {
      if (args.size() != 2) {
        std::printf("route: %s\n", RouteModeName(route_));
        return true;
      }
      std::string r = ToLower(args[1]);
      if (r == "auto") {
        route_ = RouteMode::kAuto;
      } else if (r == "cf" || r == "conflict-free") {
        route_ = RouteMode::kForceConflictFree;
      } else if (r == "rewrite" || r == "rewriting") {
        route_ = RouteMode::kForceRewrite;
      } else if (r == "prover") {
        route_ = RouteMode::kForceProver;
      } else {
        std::printf("unknown route: %s (auto|cf|rewrite|prover)\n",
                    args[1].c_str());
        return true;
      }
      std::printf("route: %s\n", RouteModeName(route_));
      return true;
    }
    if (cmd == ".explain") {
      size_t rest = line.find(' ');
      if (rest == std::string::npos) {
        std::printf("usage: .explain [analyze] SELECT ...\n");
        return true;
      }
      RunExplain(line.substr(rest + 1));
      return true;
    }
    if (cmd == ".metrics") {
      std::string dump = service_.DumpMetrics() + obs::Global().DumpPrometheus();
      if (dump.empty()) {
        std::printf("(no metrics recorded yet)\n");
      } else {
        std::printf("%s", dump.c_str());
      }
      return true;
    }
    if (cmd == ".serve") {
      service::ServiceStats stats = service_.stats();
      std::printf(
          "commits: %llu (%llu incremental, %llu re-detect) in %llu "
          "groups (max group %zu)\n"
          "async rounds: %llu (%llu small commits replayed)\n"
          "epochs published: %llu (current %llu)\n",
          (unsigned long long)stats.commits,
          (unsigned long long)stats.incremental_commits,
          (unsigned long long)stats.bulk_redetects,
          (unsigned long long)stats.commit_groups, stats.max_group_size,
          (unsigned long long)stats.async_redetects,
          (unsigned long long)stats.replayed_commits,
          (unsigned long long)stats.snapshots_published,
          (unsigned long long)service_.epoch());
      return true;
    }
    if (cmd == ".conflicts") {
      std::printf("%s\n",
                  service_.snapshot()->hypergraph().StatsString().c_str());
      return true;
    }
    if (cmd == ".mem") {
      SnapshotPtr snap = service_.snapshot();
      std::printf("catalog: %zu tables, %zu rows, %s\n",
                  snap->catalog().TableNames().size(),
                  snap->catalog().TotalRows(),
                  bench::FormatBytes(snap->catalog().ApproxBytes()).c_str());
      std::printf("hypergraph: %zu edges, %s\n",
                  snap->hypergraph().NumEdges(),
                  bench::FormatBytes(snap->hypergraph().ApproxBytes()).c_str());
      if (pre_commit_ != nullptr) {
        // Marginal bytes: the row chunks, index shards and graph partitions
        // written since the last commit; everything else is shared.
        std::unordered_set<const void*> seen;
        pre_commit_->CollectStorageIdentity(&seen);
        std::printf("since epoch %llu (before the last commit): %s new, the "
                    "rest shared\n",
                    (unsigned long long)pre_commit_->epoch(),
                    bench::FormatBytes(snap->AccumulateApproxBytes(&seen))
                        .c_str());
      }
      return true;
    }
    if (cmd == ".constraints") {
      SnapshotPtr snap = service_.snapshot();
      for (const auto& dc : snap->constraints()) {
        std::printf("%s\n", dc.ToString().c_str());
      }
      for (const auto& fk : snap->foreign_keys()) {
        std::printf("%s\n", fk.ToString().c_str());
      }
      if (snap->constraints().empty() && snap->foreign_keys().empty()) {
        std::printf("(none)\n");
      }
      return true;
    }
    if (cmd == ".repairs") {
      size_t limit = 100000;
      if (args.size() > 1 && !ParseCount(args[1], &limit)) {
        std::printf("usage: .repairs [limit]\n");
        return true;
      }
      Result<size_t> count = service_.snapshot()->CountRepairs(limit);
      if (!count.ok()) {
        std::printf("error: %s\n", count.status().ToString().c_str());
      } else {
        std::printf("repairs: %zu\n", count.value());
      }
      return true;
    }
    if (cmd == ".agg") {
      if (args.size() < 3) {
        std::printf("usage: .agg <count|sum|min|max|avg> <table> [column]\n");
        return true;
      }
      auto fn = cqa::AggFnFromString(args[1]);
      if (!fn.ok()) {
        std::printf("error: %s\n", fn.status().ToString().c_str());
        return true;
      }
      std::string col = args.size() >= 4 ? args[3] : "";
      Result<cqa::AggRange> range =
          service_.snapshot()->RangeConsistentAggregate(args[2], fn.value(),
                                                        col);
      if (!range.ok()) {
        std::printf("error: %s\n", range.status().ToString().c_str());
      } else {
        std::printf("%s(%s.%s) in every repair: %s\n",
                    cqa::AggFnToString(fn.value()), args[2].c_str(),
                    col.c_str(), range.value().ToString().c_str());
      }
      return true;
    }
    if (cmd == ".report") {
      Result<std::string> report =
          GenerateConflictReport(*service_.snapshot());
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
      } else {
        std::printf("%s", report.value().c_str());
      }
      return true;
    }
    if (cmd == ".incremental") {
      bool turn_on = args.size() > 1 && ToLower(args[1]) == "on";
      bool turn_off = args.size() > 1 && ToLower(args[1]) == "off";
      bool enabled = false;
      IncrementalStats stats;
      Status st = service_.WithMaster([&](Database& db) {
        if (turn_on) {
          Status enable = db.EnableIncrementalMaintenance();
          if (!enable.ok()) return enable;
        } else if (turn_off) {
          // Allowed, but the commit pipeline re-enables maintenance on the
          // next commit (its published-graph invariant); "off" effectively
          // lasts until then.
          db.DisableIncrementalMaintenance();
        }
        enabled = db.incremental_maintenance_enabled();
        stats = db.incremental_stats();
        return Status::OK();
      });
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return true;
      }
      std::printf("incremental maintenance: %s (+%zu/-%zu edges over "
                  "%zu inserts, %zu deletes)\n",
                  enabled ? "on" : "off", stats.edges_added,
                  stats.edges_removed, stats.inserts, stats.deletes);
      if (turn_off) {
        std::printf("note: the commit pipeline restores maintenance on the "
                    "next commit\n");
      }
      return true;
    }
    if (cmd == ".groupagg") {
      if (args.size() < 5) {
        std::printf("usage: .groupagg <count|sum|min|max|avg> <table> "
                    "<column|-> <group-col> [group-col ...]\n");
        return true;
      }
      auto fn = cqa::AggFnFromString(args[1]);
      if (!fn.ok()) {
        std::printf("error: %s\n", fn.status().ToString().c_str());
        return true;
      }
      std::string col = args[3] == "-" ? "" : args[3];
      std::vector<std::string> group_cols(args.begin() + 4, args.end());
      Result<std::vector<cqa::GroupRange>> result =
          service_.snapshot()->GroupedRangeConsistentAggregate(
              args[2], fn.value(), col, group_cols);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        return true;
      }
      for (const cqa::GroupRange& g : result.value()) {
        std::printf("%s\n", g.ToString().c_str());
      }
      return true;
    }
    if (cmd == ".threads") {
      if (args.size() > 1) {
        size_t n = 0;
        if (!ParseCount(args[1], &n)) {
          std::printf("usage: .threads [N] (0 = all hardware threads)\n");
          return true;
        }
        threads_ = n;
        // A master configuration change (the read-pool width stays as
        // constructed; detection and the prover loop pick up the new
        // count). WithMaster rebuilds the invalidated graph and publishes
        // the re-detected epoch.
        DetectOptions detect;
        detect.num_threads = n;
        Status st = service_.WithMaster(
            [&](Database& db) {
              db.SetDetectOptions(detect);
              return Status::OK();
            },
            /*publish=*/true);
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          return true;
        }
        std::printf("hypergraph re-detected with the new thread count\n");
      }
      std::printf("threads: %zu (resolved: %zu)\n", threads_,
                  ResolveThreadCount(threads_));
      return true;
    }
    if (cmd == ".tables") {
      SnapshotPtr snap = service_.snapshot();
      for (const std::string& name : snap->catalog().TableNames()) {
        auto t = snap->catalog().GetTable(name);
        std::printf("%s (%zu rows)\n", name.c_str(),
                    t.value()->NumLiveRows());
      }
      return true;
    }
    std::printf("unknown command %s (try .help)\n", cmd.c_str());
    return true;
  }

  /// Serves ".explain [analyze] SELECT ..." and the SQL-statement form:
  /// plain EXPLAIN renders the plans; EXPLAIN ANALYZE executes the query
  /// with a trace and renders per-operator wall time + cardinality.
  void RunExplain(const std::string& body) {
    size_t start = body.find_first_not_of(" \t\n");
    if (start == std::string::npos) {
      std::printf("usage: .explain [analyze] SELECT ...\n");
      return;
    }
    bool analyze =
        EqualsIgnoreCase(std::string(body, start, 7), "analyze") &&
        (start + 7 >= body.size() ||
         std::isspace(static_cast<unsigned char>(body[start + 7])));
    Result<std::string> text{std::string()};
    if (analyze) {
      size_t sql = body.find_first_not_of(" \t\n", start + 7);
      if (sql == std::string::npos) {
        std::printf("usage: .explain analyze SELECT ...\n");
        return;
      }
      cqa::HippoOptions options;
      options.num_threads = threads_;
      options.route = route_;
      text = service_.snapshot()->ExplainAnalyze(body.substr(sql), options);
    } else {
      text = service_.snapshot()->Explain(body.substr(start));
    }
    if (!text.ok()) {
      std::printf("error: %s\n", text.status().ToString().c_str());
    } else {
      std::printf("%s", text.value().c_str());
    }
  }

  /// Handles a leading EXPLAIN [ANALYZE] keyword on a SQL statement.
  /// Returns true when the statement was an EXPLAIN and has been served.
  bool TryExplainStatement(const std::string& text) {
    size_t start = text.find_first_not_of(" \t\n");
    if (start == std::string::npos) return false;
    if (!EqualsIgnoreCase(std::string(text, start, 7), "explain")) {
      return false;
    }
    size_t after = start + 7;
    if (after < text.size() &&
        !std::isspace(static_cast<unsigned char>(text[after]))) {
      return false;  // identifier merely starting with "explain"
    }
    RunExplain(after < text.size() ? text.substr(after) : "");
    return true;
  }

  void RunStatement(const std::string& text) {
    if (text.find_first_not_of(" \t\n") == std::string::npos) return;
    if (TryExplainStatement(text)) return;
    // SELECT goes through the current answering mode; anything else is a
    // commit through the asynchronous pipeline.
    size_t start = text.find_first_not_of(" \t\n(");
    bool is_select =
        start != std::string::npos &&
        EqualsIgnoreCase(std::string(text, start, 6), "select");
    auto t0 = std::chrono::steady_clock::now();
    if (!is_select) {
      SnapshotPtr before = service_.snapshot();
      CommitReceipt receipt = service_.CommitAsync(text).get();
      RecordStatement("execute", t0);
      if (!receipt.status.ok()) {
        std::printf("error: %s\n", receipt.status.ToString().c_str());
        return;
      }
      pre_commit_ = std::move(before);
      std::printf("committed: epoch %llu (group of %zu%s)\n",
                  (unsigned long long)receipt.epoch, receipt.group_size,
                  receipt.phases.redetected ? ", re-detected" : "");
      return;
    }
    cqa::HippoStats stats;
    Result<ResultSet> rs = RunSelect(text, &stats);
    RecordStatement(ModeName(mode_), t0);
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
      return;
    }
    std::printf("%s(%zu rows, mode %s)\n",
                rs.value().ToString(100).c_str(), rs.value().NumRows(),
                ModeName(mode_));
    if (stats_enabled_ && mode_ == Mode::kCqa) {
      std::printf(
          "route=%s candidates=%zu answers=%zu filtered=%zu prover=%zu "
          "membership=%zu envelope=%.3fms prove=%.3fms\n",
          RouteKindName(stats.route), stats.candidates, stats.answers,
          stats.filtered_shortcuts, stats.prover_invocations,
          stats.membership_checks, stats.envelope_seconds * 1e3,
          stats.prove_seconds * 1e3);
    }
  }

  /// Records one finished statement into the process-global metrics
  /// registry (surfaced by `.metrics`): a per-kind latency histogram plus
  /// a total counter. `kind` is the answering mode or "execute" for DML.
  void RecordStatement(const char* kind,
                       std::chrono::steady_clock::time_point t0) {
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    obs::MetricsRegistry& reg = obs::Global();
    reg.GetCounter("hippo_shell_statements_total")->Add(1);
    reg.GetHistogram(obs::MetricsRegistry::Labeled(
                         "hippo_shell_statement_seconds", {{"kind", kind}}))
        ->Record(secs);
  }

  Result<ResultSet> RunSelect(const std::string& text,
                              cqa::HippoStats* stats) {
    SnapshotPtr snap = service_.snapshot();
    switch (mode_) {
      case Mode::kPlain:
        return snap->Query(text);
      case Mode::kCqa: {
        cqa::HippoOptions options;
        // Shell thread count drives the prover loop too (detection picks it
        // up through the master's DetectOptions); 0 resolves to all
        // hardware threads in both.
        options.num_threads = threads_;
        options.route = route_;
        return snap->ConsistentAnswers(text, options, stats);
      }
      case Mode::kCore:
        return snap->QueryOverCore(text);
      case Mode::kRewriting:
        return snap->ConsistentAnswersByRewriting(text);
      case Mode::kAllRepairs:
        return snap->ConsistentAnswersAllRepairs(text);
    }
    return Status::Internal("unknown mode");
  }

  size_t threads_;
  QueryService service_;
  /// The epoch current before the last successful commit, kept for `.mem`'s
  /// marginal report; structural sharing makes holding it cost only what
  /// that commit wrote.
  SnapshotPtr pre_commit_;
  Mode mode_ = Mode::kCqa;
  RouteMode route_ = RouteMode::kAuto;
  bool stats_enabled_ = false;
};

}  // namespace
}  // namespace hippo::shell

int main(int argc, char** argv) {
  bool interactive = isatty(0);
  size_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t parsed = 0;
    if (arg == "--threads" && i + 1 < argc &&
        hippo::shell::ParseCount(argv[i + 1], &parsed)) {
      threads = parsed;
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: hippo_shell [--threads N]  (N = 0: all cores)\n");
      return 2;
    }
  }
  hippo::shell::Shell shell(threads);
  if (interactive) {
    std::printf(
        "hippo shell — consistent query answering over inconsistent "
        "databases\nmode: cqa (try .help)\n");
  }
  return shell.Run(std::cin, interactive);
}
