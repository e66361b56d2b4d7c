// Concurrency tests for the serving subsystem: the Database cold-cache race
// regression, snapshot/epoch isolation, admission control, and a randomized
// reader/writer stress battery that checks every concurrent answer against a
// serial oracle at the same epoch. This suite is the payload of the `tsan`
// preset (see CMakePresets.json): it must stay race-free under
// ThreadSanitizer, not merely pass functionally.
#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "db/database.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "test_util.h"

namespace hippo {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::Session;
using service::SnapshotPtr;

// ---------------------------------------------------------------------------
// Satellite regression: two threads racing the lazy hypergraph build. Before
// Database::HypergraphWith was serialized, concurrent first use on a cold
// cache raced on the optional's engagement (a TSan-visible data race and a
// potential use-after-free of the losing thread's graph). The fix makes any
// number of cold readers safe; this test fails under TSan without it.
// ---------------------------------------------------------------------------

void FillConflicted(Database* db, size_t rows) {
  ASSERT_OK(db->Execute(
      "CREATE TABLE emp(name VARCHAR, salary INTEGER);"
      "CREATE CONSTRAINT fd_emp FD ON emp (name -> salary)"));
  std::string script;
  for (size_t i = 0; i < rows; ++i) {
    script += StrFormat("INSERT INTO emp VALUES ('e%zu', %zu);", i % (rows / 2),
                        i % 3);
  }
  ASSERT_OK(db->Execute(script));
}

TEST(DatabaseRace, ConcurrentConsistentAnswersOnColdCache) {
  Database db;
  FillConflicted(&db, 200);
  ASSERT_EQ(db.hypergraph_epoch(), 0u);  // cache is cold

  constexpr size_t kThreads = 4;
  std::vector<Result<ResultSet>> results(kThreads,
                                         Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &results, t] {
      results[t] = db.ConsistentAnswers("SELECT * FROM emp");
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_OK(results[0].status());
  EXPECT_EQ(db.hypergraph_epoch(), 1u);  // built exactly once
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_OK(results[t].status());
    EXPECT_EQ(results[t].value().rows, results[0].value().rows)
        << "thread " << t << " answered differently";
  }
}

TEST(DatabaseRace, ConcurrentHypergraphAndQueryPaths) {
  Database db;
  FillConflicted(&db, 120);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.emplace_back([&] {
    if (!db.Hypergraph().ok()) ++failures;
  });
  threads.emplace_back([&] {
    if (!db.IsConsistent().ok()) ++failures;
  });
  threads.emplace_back([&] {
    if (!db.QueryOverCore("SELECT * FROM emp").ok()) ++failures;
  });
  threads.emplace_back([&] {
    if (!db.ConsistentAnswers("SELECT * FROM emp").ok()) ++failures;
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Snapshot / epoch semantics of the query service.
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  static ServiceOptions SmallPool() {
    ServiceOptions options;
    options.threads = 2;
    return options;
  }

  static constexpr const char* kSchema =
      "CREATE TABLE dept(did INTEGER, budget INTEGER);"
      "CREATE TABLE emp(name VARCHAR, did INTEGER, salary INTEGER);"
      "CREATE CONSTRAINT fd_emp FD ON emp (name -> salary);"
      "CREATE CONSTRAINT fk_emp FOREIGN KEY emp (did) REFERENCES dept (did)";
};

TEST_F(ServiceTest, EpochZeroIsEmptyAndCommitsAdvanceEpochs) {
  QueryService service(SmallPool());
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_TRUE(service.snapshot()->IsConsistent());
  EXPECT_EQ(service.snapshot()->catalog().TotalRows(), 0u);

  ASSERT_OK(service.Commit(kSchema));
  EXPECT_EQ(service.epoch(), 1u);
  ASSERT_OK(service.Commit(
      "INSERT INTO dept VALUES (1, 100);"
      "INSERT INTO emp VALUES ('ann', 1, 10), ('ann', 1, 20)"));
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_FALSE(service.snapshot()->IsConsistent());
  EXPECT_EQ(service.snapshot()->hypergraph().NumEdges(), 1u);
}

TEST_F(ServiceTest, SessionsPinTheirEpochAcrossCommits) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(kSchema));
  ASSERT_OK(service.Commit(
      "INSERT INTO dept VALUES (1, 100);"
      "INSERT INTO emp VALUES ('ann', 1, 10), ('bob', 1, 20)"));

  Session pinned = service.OpenSession();
  ASSERT_EQ(pinned.epoch(), 2u);
  auto before = pinned.snapshot()->ConsistentAnswers("SELECT * FROM emp");
  ASSERT_OK(before.status());
  EXPECT_EQ(before.value().NumRows(), 2u);

  // A writer deletes bob and conflicts ann; the pinned session is blind to
  // both, a refreshed session sees both.
  ASSERT_OK(service.Commit(
      "DELETE FROM emp WHERE name = 'bob';"
      "INSERT INTO emp VALUES ('ann', 1, 99)"));
  auto after = pinned.snapshot()->ConsistentAnswers("SELECT * FROM emp");
  ASSERT_OK(after.status());
  EXPECT_EQ(after.value().rows, before.value().rows)
      << "session must answer at its acquired epoch";

  pinned.Refresh();
  EXPECT_EQ(pinned.epoch(), 3u);
  auto refreshed = pinned.snapshot()->ConsistentAnswers("SELECT * FROM emp");
  ASSERT_OK(refreshed.status());
  // ann is now conflicted on salary (no consistent answer for her rows) and
  // bob is gone: no consistent answers remain.
  EXPECT_EQ(refreshed.value().NumRows(), 0u);
}

// Same status code; same rows in the same order when both succeed.
void ExpectSameResult(const Result<ResultSet>& served,
                      const Result<ResultSet>& expected,
                      const std::string& what) {
  ASSERT_EQ(served.status().code(), expected.status().code())
      << what << ": " << served.status().ToString() << " vs "
      << expected.status().ToString();
  if (served.ok()) {
    EXPECT_EQ(served.value().rows, expected.value().rows) << what;
  }
}

void ExpectSameRange(const Result<cqa::AggRange>& served,
                     const Result<cqa::AggRange>& expected,
                     const std::string& what) {
  ASSERT_OK(served.status());
  ASSERT_OK(expected.status());
  EXPECT_EQ(served.value().glb, expected.value().glb) << what;
  EXPECT_EQ(served.value().lub, expected.value().lub) << what;
}

// Every read a snapshot offers agrees with a serial Database holding the
// same state, epoch by epoch.
TEST_F(ServiceTest, SnapshotAnswersBitIdenticalToSerialDatabase) {
  const std::vector<std::string> scripts = {
      kSchema,
      "INSERT INTO dept VALUES (1, 100), (2, 200);"
      "INSERT INTO emp VALUES ('ann', 1, 10), ('ann', 1, 20), "
      "('bob', 2, 30), ('cat', 7, 40)",  // cat is an FK orphan
      "DELETE FROM dept WHERE did = 2;"  // orphans bob
      "INSERT INTO emp VALUES ('dee', 1, 50)",
  };
  const std::vector<std::string> queries = {
      "SELECT * FROM emp",
      "SELECT * FROM emp, dept WHERE emp.did = dept.did",
      "SELECT * FROM emp WHERE salary < 45",
      "SELECT * FROM dept WHERE budget > 50",
  };

  QueryService service(SmallPool());
  Database oracle;
  for (const std::string& script : scripts) {
    ASSERT_OK(service.Commit(script));
    ASSERT_OK(oracle.Execute(script));
    // Build the oracle's graph up front: its Explain classifies the route
    // against the cached graph, and a snapshot always carries one.
    ASSERT_OK(oracle.Hypergraph().status());
    SnapshotPtr snap = service.snapshot();
    const std::string at = StrFormat("epoch %llu",
                                     (unsigned long long)snap->epoch());
    for (const std::string& q : queries) {
      const std::string what = at + " query: " + q;
      auto expected = oracle.ConsistentAnswers(q);
      ASSERT_OK(expected.status());
      ExpectSameResult(snap->ConsistentAnswers(q), expected, what);
      // The worker pool must agree with the caller-thread path.
      ExpectSameResult(
          service.Submit(QueryService::ReadMode::kConsistent, q, snap).get(),
          expected, what + " (pool)");

      auto plain = oracle.Query(q);
      ASSERT_OK(plain.status());
      ExpectSameResult(snap->Query(q), plain, what + " (plain)");
      auto core = oracle.QueryOverCore(q);
      ASSERT_OK(core.status());
      ExpectSameResult(snap->QueryOverCore(q), core, what + " (core)");
      auto exact = oracle.ConsistentAnswersAllRepairs(q);
      ASSERT_OK(exact.status());
      ExpectSameResult(snap->ConsistentAnswersAllRepairs(q), exact,
                       what + " (all repairs)");
      // The rewriting baseline may refuse a query; it must refuse it alike.
      ExpectSameResult(snap->ConsistentAnswersByRewriting(q),
                       oracle.ConsistentAnswersByRewriting(q),
                       what + " (rewriting)");

      auto explained = oracle.Explain(q);
      ASSERT_OK(explained.status());
      auto served_explain = snap->Explain(q);
      ASSERT_OK(served_explain.status());
      EXPECT_EQ(served_explain.value(), explained.value()) << what;
    }
    auto repairs = oracle.CountRepairs();
    ASSERT_OK(repairs.status());
    auto served_repairs = snap->CountRepairs();
    ASSERT_OK(served_repairs.status());
    EXPECT_EQ(served_repairs.value(), repairs.value()) << at;
    auto consistent = oracle.IsConsistent();
    ASSERT_OK(consistent.status());
    EXPECT_EQ(snap->IsConsistent(), consistent.value()) << at;
    for (cqa::AggFn fn : {cqa::AggFn::kSum, cqa::AggFn::kMin,
                          cqa::AggFn::kCount}) {
      ExpectSameRange(
          snap->RangeConsistentAggregate("emp", fn, "salary"),
          oracle.RangeConsistentAggregate("emp", fn, "salary"),
          at + " aggregate " + cqa::AggFnToString(fn));
    }
  }
}

// The optimizer toggle travels with Capture: a snapshot of a Database with
// the optimizer off explains (and evaluates) like that Database, and its
// EXPLAIN ANALYZE still names the epoch.
TEST_F(ServiceTest, SnapshotCarriesOptimizerFlagAndEpoch) {
  // The planner leaves a constant filter above the product and the
  // optimizer pushes it down, so EXPLAIN prints an optimized block exactly
  // when the flag is on.
  const std::string q = "SELECT * FROM emp, dept WHERE 1 = 1";
  Database db;
  ASSERT_OK(db.Execute(std::string(kSchema) +
                       ";INSERT INTO dept VALUES (1, 100);"
                       "INSERT INTO emp VALUES ('ann', 1, 10), ('ann', 1, 20)"));
  auto optimized = db.Explain(q);
  ASSERT_OK(optimized.status());
  ASSERT_NE(optimized.value().find("-- optimized"), std::string::npos)
      << optimized.value();

  db.set_optimizer_enabled(false);
  auto snap = service::Snapshot::Capture(&db, 7);
  ASSERT_OK(snap.status());
  EXPECT_FALSE(snap.value()->optimizer_enabled());
  auto expected = db.Explain(q);
  ASSERT_OK(expected.status());
  auto served = snap.value()->Explain(q);
  ASSERT_OK(served.status());
  EXPECT_EQ(served.value(), expected.value());
  EXPECT_EQ(served.value().find("-- optimized"), std::string::npos)
      << served.value();
  ExpectSameResult(snap.value()->Query(q), db.Query(q), "plain");

  auto analyzed = snap.value()->ExplainAnalyze(q);
  ASSERT_OK(analyzed.status());
  EXPECT_NE(analyzed.value().find("epoch=7"), std::string::npos)
      << analyzed.value();
}

TEST_F(ServiceTest, MidScriptErrorStillPublishesMasterState) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(kSchema));
  // Second statement fails; the first insert must still be visible (Execute
  // applies statements in order) so readers see exactly the master state.
  Status st = service.Commit(
      "INSERT INTO dept VALUES (1, 100);"
      "INSERT INTO nosuch VALUES (1)");
  EXPECT_FALSE(st.ok());
  auto rs = service.snapshot()->Query("SELECT * FROM dept");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs.value().NumRows(), 1u);
}

TEST_F(ServiceTest, BulkCommitRoutesToParallelRedetect) {
  ServiceOptions options = SmallPool();
  options.bulk_redetect_statements = 8;
  QueryService service(options);
  ASSERT_OK(service.Commit(kSchema));

  std::string bulk = "INSERT INTO dept VALUES (1, 100);";
  for (int i = 0; i < 20; ++i) {
    bulk += StrFormat("INSERT INTO emp VALUES ('e%d', 1, %d);", i / 2, i % 2);
  }
  ASSERT_OK(service.Commit(bulk));
  service::ServiceStats stats = service.stats();
  EXPECT_GE(stats.bulk_redetects, 1u);

  // A small follow-up commit goes through the restored incremental path.
  ASSERT_OK(service.Commit("INSERT INTO emp VALUES ('solo', 1, 7)"));
  stats = service.stats();
  EXPECT_GE(stats.incremental_commits, 1u);

  // Either way the served answers match a serial oracle.
  Database oracle;
  ASSERT_OK(oracle.Execute(std::string(kSchema) + ";" + bulk +
                           "INSERT INTO emp VALUES ('solo', 1, 7)"));
  auto served = service.snapshot()->ConsistentAnswers("SELECT * FROM emp");
  auto expected = oracle.ConsistentAnswers("SELECT * FROM emp");
  ASSERT_OK(served.status());
  ASSERT_OK(expected.status());
  EXPECT_EQ(served.value().rows, expected.value().rows);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, SubmitAfterShutdownIsRejected) {
  QueryService service(SmallPool());
  ASSERT_OK(service.Commit(kSchema));
  service.Shutdown();
  auto fut = service.Submit(QueryService::ReadMode::kPlain,
                            "SELECT * FROM emp");
  Result<ResultSet> rs = fut.get();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServiceTest, FullQueueRejectsWhenConfiguredTo) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue_depth = 1;
  options.reject_when_full = true;
  QueryService service(options);
  ASSERT_OK(service.Commit(kSchema));
  // A thousand conflicted rows make each CQA request heavy enough that the
  // single worker cannot drain the flood below.
  std::string bulk;
  for (int i = 0; i < 1000; ++i) {
    bulk += StrFormat("INSERT INTO emp VALUES ('e%d', %d, %d);", i / 2,
                      i % 40, i % 2);
  }
  bulk += "INSERT INTO dept VALUES (0, 0)";
  ASSERT_OK(service.Commit(bulk));

  std::vector<std::future<Result<ResultSet>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(service.Submit(QueryService::ReadMode::kConsistent,
                                     "SELECT * FROM emp"));
  }
  size_t rejected = 0;
  size_t answered = 0;
  for (auto& fut : futures) {
    Result<ResultSet> rs = fut.get();
    if (rs.ok()) {
      ++answered;
    } else {
      ASSERT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "flooding a depth-1 queue must shed load";
  EXPECT_GT(answered, 0u) << "admitted requests must still be answered";
  EXPECT_EQ(service.stats().queries_rejected, rejected);
}

// ---------------------------------------------------------------------------
// Satellite: randomized concurrent stress. A writer streams FK/FD churn
// commits while reader threads continuously open sessions and check every
// answer bit-for-bit against a serial oracle at the session's epoch. The
// oracle answers are computed (and published to the epoch map) before the
// service commit, so a reader can never acquire an epoch whose expectation
// is missing.
// ---------------------------------------------------------------------------

class StressOracle {
 public:
  void Put(uint64_t epoch, std::map<std::string, std::vector<Row>> answers) {
    std::lock_guard<std::mutex> lock(mu_);
    by_epoch_[epoch] = std::move(answers);
  }

  bool Check(uint64_t epoch, const std::string& query,
             const std::vector<Row>& got, std::string* error) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_epoch_.find(epoch);
    if (it == by_epoch_.end()) {
      *error = StrFormat("no oracle answers for epoch %llu",
                         static_cast<unsigned long long>(epoch));
      return false;
    }
    const std::vector<Row>& want = it->second.at(query);
    if (got != want) {
      *error = StrFormat(
          "epoch %llu query %s: served %zu rows, oracle %zu rows "
          "(or same count, different tuples/order)",
          static_cast<unsigned long long>(epoch), query.c_str(), got.size(),
          want.size());
      return false;
    }
    return true;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::map<std::string, std::vector<Row>>> by_epoch_;
};

TEST_F(ServiceTest, RandomizedReadersVsChurnWriter) {
  const std::vector<std::string> kQueries = {
      "SELECT * FROM emp",
      "SELECT * FROM emp, dept WHERE emp.did = dept.did",
  };
  constexpr size_t kCommits = 25;
  constexpr size_t kReaders = 4;
  constexpr size_t kNames = 12;   // small domains force FD collisions
  constexpr size_t kDepts = 6;    // ... and FK orphans under dept churn

  QueryService service(SmallPool());
  Database oracle;
  StressOracle expected;

  auto record_epoch = [&](uint64_t epoch) {
    std::map<std::string, std::vector<Row>> answers;
    for (const std::string& q : kQueries) {
      auto rs = oracle.ConsistentAnswers(q);
      ASSERT_OK(rs.status());
      answers[q] = rs.value().rows;
    }
    expected.Put(epoch, std::move(answers));
  };

  // Epoch 0 (empty instance) has no tables; readers skip it via the
  // initial barrier below. Apply the schema + seed rows as epoch 1.
  std::string seed = std::string(kSchema) + ";";
  for (size_t d = 0; d < kDepts; ++d) {
    seed += StrFormat("INSERT INTO dept VALUES (%zu, %zu);", d, d * 100);
  }
  for (size_t i = 0; i < 3 * kNames; ++i) {
    seed += StrFormat("INSERT INTO emp VALUES ('w%zu', %zu, %zu);",
                      i % kNames, i % (kDepts + 2), i % 3);
  }
  ASSERT_OK(oracle.Execute(seed));
  record_epoch(1);
  ASSERT_OK(service.Commit(seed));
  ASSERT_EQ(service.epoch(), 1u);

  std::atomic<bool> done{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto report = [&](std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  std::thread writer([&] {
    Rng rng(20260729);
    for (size_t c = 0; c < kCommits; ++c) {
      std::string script;
      size_t stmts = 1 + rng.Uniform(4);
      for (size_t s = 0; s < stmts; ++s) {
        switch (rng.Uniform(5)) {
          case 0:  // FD churn: same name, varying salary
            script += StrFormat("INSERT INTO emp VALUES ('w%llu', %llu, %llu);",
                                (unsigned long long)rng.Uniform(kNames),
                                (unsigned long long)rng.Uniform(kDepts + 2),
                                (unsigned long long)rng.Uniform(3));
            break;
          case 1:  // FK churn: drop a parent, orphaning its children
            script += StrFormat("DELETE FROM dept WHERE did = %llu;",
                                (unsigned long long)rng.Uniform(kDepts));
            break;
          case 2:  // FK cure: resurrect a parent
            script += StrFormat("INSERT INTO dept VALUES (%llu, %llu);",
                                (unsigned long long)rng.Uniform(kDepts),
                                (unsigned long long)(rng.Uniform(kDepts) * 100));
            break;
          case 3:  // deletion drains conflicts
            script += StrFormat("DELETE FROM emp WHERE name = 'w%llu';",
                                (unsigned long long)rng.Uniform(kNames));
            break;
          default:  // salary rewrite: touches FD edges both ways
            script += StrFormat(
                "UPDATE emp SET salary = %llu WHERE name = 'w%llu';",
                (unsigned long long)rng.Uniform(3),
                (unsigned long long)rng.Uniform(kNames));
            break;
        }
      }
      Status st = oracle.Execute(script);
      if (!st.ok()) {
        report("oracle apply failed: " + st.ToString());
        break;
      }
      record_epoch(2 + c);
      st = service.Commit(script);
      if (!st.ok()) {
        report("service commit failed: " + st.ToString());
        break;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<size_t> checks{0};
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t spin = 0;
      while (!done.load() || spin == 0) {
        ++spin;
        Session session = service.OpenSession();
        for (const std::string& q : kQueries) {
          // Alternate between the caller-thread path and the worker pool;
          // both must be bit-identical to the oracle at the pinned epoch.
          Result<ResultSet> rs = ((spin + r) % 2 == 0)
                  ? session.snapshot()->ConsistentAnswers(q)
                  : session.Submit(QueryService::ReadMode::kConsistent, q)
                        .get();
          if (!rs.ok()) {
            report("reader query failed: " + rs.status().ToString());
            return;
          }
          std::string error;
          if (!expected.Check(session.epoch(), q, rs.value().rows, &error)) {
            report(error);
            return;
          }
          ++checks;
        }
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lock(failures_mu);
    for (const std::string& f : failures) ADD_FAILURE() << f;
  }
  EXPECT_GE(checks.load(), kReaders * kQueries.size());
  EXPECT_EQ(service.epoch(), 1 + kCommits);
}

}  // namespace
}  // namespace hippo
