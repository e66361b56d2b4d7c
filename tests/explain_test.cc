// Tests for the EXPLAIN facility.
#include <gtest/gtest.h>

#include <sstream>

#include "db/database.h"
#include "tests/test_util.h"

namespace hippo {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute(
        "CREATE TABLE r (a INTEGER, b INTEGER);"
        "CREATE TABLE s (a INTEGER, b INTEGER);"
        "CREATE CONSTRAINT fd FD ON r (a -> b)"));
  }
  Database db_;
};

TEST_F(ExplainTest, ShowsPlanEnvelopeAndRewriting) {
  auto text = db_.Explain("SELECT * FROM r WHERE a = 1");
  ASSERT_OK(text.status());
  EXPECT_NE(text.value().find("-- plan --"), std::string::npos);
  EXPECT_NE(text.value().find("-- envelope"), std::string::npos);
  EXPECT_NE(text.value().find("-- rewriting baseline --"), std::string::npos);
  EXPECT_NE(text.value().find("AntiJoin"), std::string::npos);
}

TEST_F(ExplainTest, EnvelopeDropsSubtrahendVisibly) {
  auto text = db_.Explain("SELECT * FROM r EXCEPT SELECT * FROM s");
  ASSERT_OK(text.status());
  // The plan section contains the Difference; the envelope section must not.
  size_t env = text.value().find("-- envelope");
  ASSERT_NE(env, std::string::npos);
  size_t rew = text.value().find("-- rewriting");
  std::string env_section = text.value().substr(env, rew - env);
  EXPECT_EQ(env_section.find("Difference"), std::string::npos);
  EXPECT_NE(text.value().find("rewriting inapplicable"), std::string::npos);
}

TEST_F(ExplainTest, ReportsNonSjudQueries) {
  auto text = db_.Explain("SELECT a FROM r");
  ASSERT_OK(text.status());
  EXPECT_NE(text.value().find("not in the SJUD class"), std::string::npos);
}

TEST_F(ExplainTest, ErrorsOnBadSql) {
  EXPECT_FALSE(db_.Explain("SELECT FROM").ok());
  EXPECT_FALSE(db_.Explain("SELECT * FROM missing").ok());
}

TEST_F(ExplainTest, AggregatePlansExplainCleanly) {
  ASSERT_OK(db_.Execute("CREATE TABLE g (a INTEGER, b INTEGER)"));
  auto text = db_.Explain(
      "SELECT a, SUM(b) FROM g GROUP BY a HAVING COUNT(*) > 1");
  ASSERT_OK(text.status());
  EXPECT_NE(text.value().find("Aggregate"), std::string::npos);
  EXPECT_NE(text.value().find("not in the SJUD class"), std::string::npos);
  EXPECT_NE(text.value().find("rewriting inapplicable"), std::string::npos);
}

TEST_F(ExplainTest, OptimizedSectionAppearsOnlyWhenDifferent) {
  // Planner output is already pushed down: no optimized section.
  auto simple = db_.Explain("SELECT * FROM r WHERE b > 10");
  ASSERT_OK(simple.status());
  EXPECT_EQ(simple.value().find("-- optimized"), std::string::npos)
      << simple.value();
}

TEST_F(ExplainTest, AnalyzeShowsSelectionBelowResidueAntiJoin) {
  // The first-order routes push the query's selection under the residue
  // anti-join, so the anti-join probes only the selected rows.
  ASSERT_OK(db_.Execute("INSERT INTO r VALUES (1, 1), (1, 2), (2, 3)"));
  auto text = db_.ExplainAnalyze("SELECT * FROM r WHERE a = 2");
  ASSERT_OK(text.status());
  EXPECT_NE(text.value().find("rewrite-abc"), std::string::npos)
      << text.value();
  // Span lines are indented two spaces per depth.
  size_t antijoin_depth = std::string::npos;
  bool filter_below = false;
  std::istringstream lines(text.value());
  for (std::string line; std::getline(lines, line);) {
    size_t depth = line.find_first_not_of(' ');
    if (line.compare(depth, 8, "AntiJoin") == 0) {
      antijoin_depth = depth;
    } else if (line.compare(depth, 6, "Filter") == 0) {
      ASSERT_NE(antijoin_depth, std::string::npos)
          << "filter above the anti-join:\n" << text.value();
      filter_below = depth > antijoin_depth;
    }
  }
  EXPECT_TRUE(filter_below) << text.value();
}

}  // namespace
}  // namespace hippo
