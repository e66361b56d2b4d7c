// HippoEngine: the end-to-end pipeline of the paper's Figure 1.
//
//   Query ─► Enveloping ─► Evaluation ─► Candidates ─► Prover ─► Answer Set
//                              ▲                          ▲
//                             DB ◄── Conflict Detection ──┘ (hypergraph)
//
// Given a bound SJUD plan and the conflict hypergraph, the engine evaluates
// the envelope to obtain candidates, grounds each candidate into a formula
// over base facts, converts to CNF and lets the HProver decide, clause by
// clause, whether any repair falsifies it. Candidates surviving all clauses
// form the consistent answer set.
#pragma once

#include <chrono>
#include <optional>

#include "catalog/catalog.h"
#include "cqa/cnf.h"
#include "detect/detector.h"
#include "cqa/ground_formula.h"
#include "cqa/knowledge.h"
#include "cqa/prover.h"
#include "constraints/constraint.h"
#include "constraints/foreign_key.h"
#include "exec/executor.h"
#include "hypergraph/hypergraph.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "plan/router.h"

namespace hippo::cqa {

struct HippoOptions {
  enum class MembershipMode {
    kQuery,               ///< base system: membership via engine queries
    kKnowledgeGathering,  ///< KG: in-memory indexes, no queries
  };
  MembershipMode membership = MembershipMode::kKnowledgeGathering;

  /// Conflict-free shortcut: candidates whose ground formula touches only
  /// conflict-free facts skip CNF + Prover entirely.
  bool use_filtering = true;

  /// Pipeline parallelism: evaluation of the envelope and of the
  /// first-order routes partitions filter masks, computed projections, and
  /// join and anti-join probes into row ranges (ExecParallel), and the
  /// prover loop — candidates are decided independently — shards across
  /// this many worker threads (1 = sequential; 0 = one per hardware
  /// thread, the same ResolveThreadCount convention as DetectOptions).
  /// Results are bit-identical regardless of thread count.
  /// Set per request: service::ServiceOptions::threads sizes the service's
  /// pool and detection but does not reach this field.
  size_t num_threads = 1;

  /// Conflict-detection options (threads, partition size) used when
  /// the conflict hypergraph must be (re)built on behalf of this call.
  /// Unset = the Database's configured DetectOptions. When a cached
  /// hypergraph already exists the cache is reused unchanged and an
  /// explicitly set `detect` has no effect — the Database reports this via
  /// HippoStats::detect_options_ignored so a mismatched DetectOptions
  /// cannot silently masquerade as a perf change.
  std::optional<DetectOptions> detect;

  /// Route selection (plan/router.h): kAuto dispatches each query to the
  /// cheapest sound engine (conflict-free plain evaluation → first-order
  /// rewriting → prover); the force modes pin one route and fail with
  /// NotSupported when it cannot soundly serve the query. Differential
  /// tests and benches use the force modes to compare routes.
  RouteMode route = RouteMode::kAuto;

  /// Optional per-query trace sink (obs/trace.h). When set, the engine
  /// records the route taken plus child spans for envelope evaluation,
  /// the prover loop, and — through ExecContext::trace — every executor
  /// operator (name, wall time, cardinality). Null (the default) keeps
  /// the query untraced at one-branch-per-phase cost. Tracing never
  /// changes answers: rows, order, and stats are bit-identical on/off.
  obs::TraceSpan* trace = nullptr;
};

struct HippoStats {
  size_t candidates = 0;
  size_t answers = 0;
  size_t filtered_shortcuts = 0;   ///< candidates decided by filtering
  size_t constant_formulas = 0;    ///< candidates decided during grounding
  size_t prover_invocations = 0;   ///< candidates that reached the Prover
  size_t clauses_checked = 0;
  size_t membership_checks = 0;    ///< total lookups (queries or index hits)
  size_t edge_choices_tried = 0;
  double envelope_seconds = 0;
  double prove_seconds = 0;        ///< grounding + CNF + prover
  double total_seconds = 0;

  /// Route taken by the most recent ConsistentAnswers call.
  RouteKind route = RouteKind::kNone;
  /// Per-route call counts and cumulative latency (seconds). The rewrite
  /// buckets cover both the ABC and KW first-order methods.
  size_t routed_conflict_free = 0;
  size_t routed_rewrite = 0;
  size_t routed_prover = 0;
  double conflict_free_route_seconds = 0;
  double rewrite_route_seconds = 0;
  double prover_route_seconds = 0;
  /// Calls whose explicitly set HippoOptions::detect was ignored because a
  /// cached hypergraph was reused (maintained by Database, which owns the
  /// cache).
  size_t detect_options_ignored = 0;
};

class HippoEngine {
 public:
  /// `constraints` / `foreign_keys` enable the first-order routes of the
  /// query router; with the defaults (null) every query takes the prover
  /// path, the pre-router behavior.
  HippoEngine(const Catalog& catalog, const ConflictHypergraph& graph,
              const std::vector<DenialConstraint>* constraints = nullptr,
              const std::vector<ForeignKeyConstraint>* foreign_keys = nullptr)
      : catalog_(catalog),
        graph_(graph),
        constraints_(constraints),
        foreign_keys_(foreign_keys) {}

  /// Computes the consistent answers to a bound plan, dispatching to the
  /// cheapest sound route (or the one forced by options.route); the plan
  /// must pass CheckSjudSupported for the prover route, and may use
  /// narrowing projection when a first-order route can serve it. A
  /// top-level SortNode is honored on the output; ties under the sort keys
  /// are broken by the row total order so every route returns bit-identical
  /// ordered results. Const: the engine only reads the catalog and
  /// hypergraph, so any number of engines (or threads within one engine)
  /// may evaluate concurrently against the same immutable snapshot.
  Result<ResultSet> ConsistentAnswers(const PlanNode& plan,
                                      const HippoOptions& options,
                                      HippoStats* stats = nullptr) const;

  /// Decides whether a single candidate tuple is a consistent answer.
  Result<bool> IsConsistentAnswer(const PlanNode& plan, const Row& tuple,
                                  const HippoOptions& options,
                                  HippoStats* stats = nullptr) const;

 private:
  Result<bool> DecideCandidate(Grounder* grounder, HProver* prover,
                               const Row& tuple, const HippoOptions& options,
                               HippoStats* stats) const;

  /// Serves a first-order route: plain evaluation of `exec_plan` (the
  /// original plan for kConflictFree, the rewritten one otherwise) after
  /// filter pushdown (OptimizePlan), with the output schema and root sort
  /// of `original`.
  Result<ResultSet> ServeFirstOrder(const PlanNode& original,
                                    const PlanNode& exec_plan,
                                    RouteKind kind,
                                    const HippoOptions& options,
                                    HippoStats* stats) const;

  Result<ResultSet> ServeProver(const PlanNode& plan,
                                const HippoOptions& options,
                                HippoStats* stats) const;

  const Catalog& catalog_;
  const ConflictHypergraph& graph_;
  const std::vector<DenialConstraint>* constraints_ = nullptr;
  const std::vector<ForeignKeyConstraint>* foreign_keys_ = nullptr;
};

}  // namespace hippo::cqa
