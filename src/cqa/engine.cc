#include "cqa/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "cqa/envelope.h"
#include "expr/evaluator.h"
#include "plan/optimizer.h"
#include "plan/sjud.h"

namespace hippo::cqa {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::unique_ptr<MembershipProvider> MakeProvider(
    const Catalog& catalog, HippoOptions::MembershipMode mode) {
  if (mode == HippoOptions::MembershipMode::kQuery) {
    return std::make_unique<QueryMembershipProvider>(catalog);
  }
  return std::make_unique<IndexMembershipProvider>(catalog);
}

}  // namespace

Result<bool> HippoEngine::DecideCandidate(Grounder* grounder, HProver* prover,
                                          const Row& tuple,
                                          const HippoOptions& options,
                                          HippoStats* stats) const {
  HIPPO_ASSIGN_OR_RETURN(GroundFormula formula, grounder->Ground(tuple));

  if (formula.IsConst()) {
    if (stats != nullptr) ++stats->constant_formulas;
    return formula.const_value;
  }
  if (options.use_filtering && AllFactsConflictFree(formula, graph_)) {
    // Conflict-free facts are in every repair: the formula is constant
    // across repairs, equal to its value with all facts present.
    if (stats != nullptr) ++stats->filtered_shortcuts;
    return formula.Eval([](RowId) { return true; });
  }

  CnfResult cnf = ToCnf(formula);
  if (cnf.is_constant) {
    if (stats != nullptr) ++stats->constant_formulas;
    return cnf.constant_value;
  }
  if (stats != nullptr) ++stats->prover_invocations;
  for (const Clause& clause : cnf.clauses) {
    if (prover->IsFalsifiable(clause)) return false;
  }
  return true;
}

namespace {

/// Orders rows under the root SortNode's keys, ties broken by the row
/// total order — a total order, so every route (prover, rewriting, plain
/// evaluation) emits bit-identical ordered output. No-op without a root
/// sort (routes may then differ in order; answer *sets* are identical).
void SortAnswers(const PlanNode& plan, std::vector<Row>* rows) {
  if (plan.kind() != PlanKind::kSort) return;
  const auto& sort = static_cast<const SortNode&>(plan);
  std::sort(rows->begin(), rows->end(),
            [&sort](const Row& a, const Row& b) {
              for (const SortNode::Key& k : sort.keys()) {
                Value va = EvalExpr(*k.expr, a);
                Value vb = EvalExpr(*k.expr, b);
                int c = va.Compare(vb);
                if (c != 0) return k.ascending ? c < 0 : c > 0;
              }
              return RowLess(a, b);
            });
}

}  // namespace

Result<ResultSet> HippoEngine::ServeFirstOrder(const PlanNode& original,
                                               const PlanNode& exec_plan,
                                               RouteKind kind,
                                               const HippoOptions& options,
                                               HippoStats* stats) const {
  auto t0 = Clock::now();
  // Evaluate below any root sort; ordering is re-applied canonically so
  // ties match the other routes. Pushdown sinks the query's selections
  // under the residue anti-joins, so they probe only the selected rows.
  const PlanNode* body = &exec_plan;
  if (body->kind() == PlanKind::kSort) body = &body->child(0);
  PlanNodePtr optimized = OptimizePlan(*body);
  body = optimized.get();
  ExecContext ctx{&catalog_, nullptr};
  ctx.parallel.num_threads = options.num_threads;
  obs::TraceSpan* span = options.trace == nullptr
                             ? nullptr
                             : options.trace->StartChild("evaluate");
  ctx.trace = span;
  HIPPO_ASSIGN_OR_RETURN(ResultSet result, Execute(*body, ctx));
  result.schema = original.schema();
  SortAnswers(original, &result.rows);
  if (span != nullptr) {
    span->SetAttr("rows", static_cast<int64_t>(result.rows.size()));
    span->SetAttr("threads", static_cast<int64_t>(
                                 ResolveThreadCount(options.num_threads)));
    span->End();
  }
  if (stats != nullptr) {
    double secs = Seconds(t0, Clock::now());
    stats->answers += result.rows.size();
    stats->total_seconds += secs;
    if (kind == RouteKind::kConflictFree) {
      ++stats->routed_conflict_free;
      stats->conflict_free_route_seconds += secs;
    } else {
      ++stats->routed_rewrite;
      stats->rewrite_route_seconds += secs;
    }
  }
  return result;
}

Result<ResultSet> HippoEngine::ConsistentAnswers(const PlanNode& plan,
                                                 const HippoOptions& options,
                                                 HippoStats* stats) const {
  HIPPO_ASSIGN_OR_RETURN(
      RouteDecision route,
      ClassifyRoute(plan, catalog_, constraints_, foreign_keys_, &graph_,
                    options.route));
  if (stats != nullptr) stats->route = route.kind;
  if (options.trace != nullptr) {
    options.trace->SetAttr("route", RouteKindName(route.kind));
  }
  switch (route.kind) {
    case RouteKind::kConflictFree:
      return ServeFirstOrder(plan, plan, route.kind, options, stats);
    case RouteKind::kRewriteAbc:
    case RouteKind::kRewriteKw:
      return ServeFirstOrder(plan, *route.rewritten, route.kind, options,
                             stats);
    default:
      break;
  }
  return ServeProver(plan, options, stats);
}

Result<ResultSet> HippoEngine::ServeProver(const PlanNode& plan,
                                           const HippoOptions& options,
                                           HippoStats* stats) const {
  HIPPO_RETURN_NOT_OK(CheckSjudSupported(plan));
  auto t0 = Clock::now();

  // 1. Enveloping + evaluation by the relational engine. The evaluation
  //    shares the prover loop's thread budget: with num_threads > 1 the
  //    executor partitions filter masks, computed projections, and join and
  //    anti-join probes into row ranges merged in partition order, so the
  //    candidate set — rows and order — is bit-identical to the serial
  //    evaluation (see ExecParallel in exec/executor.h).
  PlanNodePtr envelope = BuildEnvelope(plan);
  ExecContext ctx{&catalog_, nullptr};
  ctx.parallel.num_threads = options.num_threads;
  obs::TraceSpan* envelope_span =
      options.trace == nullptr ? nullptr
                               : options.trace->StartChild("envelope");
  ctx.trace = envelope_span;
  HIPPO_ASSIGN_OR_RETURN(ResultSet candidates, Execute(*envelope, ctx));
  if (envelope_span != nullptr) {
    envelope_span->SetAttr("candidates",
                           static_cast<int64_t>(candidates.rows.size()));
    envelope_span->End();
  }
  auto t1 = Clock::now();

  // 2. Prover loop over candidates. Candidates are decided independently;
  //    with num_threads > 1 the loop shards, each worker owning its own
  //    membership provider and prover (the catalog and hypergraph are
  //    read-only here). Verdicts land in a per-candidate array so the
  //    output order is deterministic.
  ResultSet answers;
  answers.schema = plan.schema();
  size_t prover_membership_checks = 0;
  size_t prover_clauses = 0;
  size_t prover_edge_choices = 0;
  size_t num_threads = ResolveThreadCount(options.num_threads);
  size_t workers_used = 1;
  obs::TraceSpan* prover_span =
      options.trace == nullptr ? nullptr
                               : options.trace->StartChild("prover");
  if (num_threads <= 1 || candidates.rows.size() < 2) {
    std::unique_ptr<MembershipProvider> membership =
        MakeProvider(catalog_, options.membership);
    Grounder grounder(plan, membership.get());
    HProver prover(graph_);
    for (const Row& tuple : candidates.rows) {
      HIPPO_ASSIGN_OR_RETURN(
          bool ok,
          DecideCandidate(&grounder, &prover, tuple, options, stats));
      if (ok) answers.rows.push_back(tuple);
    }
    prover_membership_checks = membership->NumLookups();
    prover_clauses = prover.stats().clauses_checked;
    prover_edge_choices = prover.stats().edge_choices_tried;
  } else {
    size_t workers = std::min(num_threads, candidates.rows.size());
    workers_used = workers;
    std::vector<char> verdict(candidates.rows.size(), 0);
    std::vector<HippoStats> worker_stats(workers);
    std::vector<Status> worker_status(workers);
    std::atomic<size_t> next{0};
    auto run_worker = [&](size_t w) {
      std::unique_ptr<MembershipProvider> membership =
          MakeProvider(catalog_, options.membership);
      Grounder grounder(plan, membership.get());
      HProver prover(graph_);
      constexpr size_t kChunk = 64;
      for (;;) {
        size_t begin = next.fetch_add(kChunk);
        if (begin >= candidates.rows.size()) break;
        size_t end = std::min(begin + kChunk, candidates.rows.size());
        for (size_t i = begin; i < end; ++i) {
          Result<bool> ok =
              DecideCandidate(&grounder, &prover, candidates.rows[i],
                              options, &worker_stats[w]);
          if (!ok.ok()) {
            worker_status[w] = ok.status();
            return;
          }
          verdict[i] = ok.value() ? 1 : 0;
        }
      }
      worker_stats[w].membership_checks += membership->NumLookups();
      worker_stats[w].clauses_checked += prover.stats().clauses_checked;
      worker_stats[w].edge_choices_tried +=
          prover.stats().edge_choices_tried;
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back(run_worker, w);
    }
    for (std::thread& t : threads) t.join();
    for (size_t w = 0; w < workers; ++w) {
      HIPPO_RETURN_NOT_OK(worker_status[w]);
      if (stats != nullptr) {
        stats->filtered_shortcuts += worker_stats[w].filtered_shortcuts;
        stats->constant_formulas += worker_stats[w].constant_formulas;
        stats->prover_invocations += worker_stats[w].prover_invocations;
      }
      prover_membership_checks += worker_stats[w].membership_checks;
      prover_clauses += worker_stats[w].clauses_checked;
      prover_edge_choices += worker_stats[w].edge_choices_tried;
    }
    for (size_t i = 0; i < candidates.rows.size(); ++i) {
      if (verdict[i]) answers.rows.push_back(candidates.rows[i]);
    }
  }
  auto t2 = Clock::now();
  if (prover_span != nullptr) {
    prover_span->SetAttr("candidates",
                         static_cast<int64_t>(candidates.rows.size()));
    prover_span->SetAttr("answers",
                         static_cast<int64_t>(answers.rows.size()));
    prover_span->SetAttr("workers", static_cast<int64_t>(workers_used));
    prover_span->SetAttr("clauses",
                         static_cast<int64_t>(prover_clauses));
    prover_span->SetAttr("edges_touched",
                         static_cast<int64_t>(prover_edge_choices));
    prover_span->SetAttr("membership_checks",
                         static_cast<int64_t>(prover_membership_checks));
    prover_span->End();
  }

  // 3. Honor a top-level ORDER BY (canonical tie order shared by every
  //    route).
  SortAnswers(plan, &answers.rows);

  if (stats != nullptr) {
    stats->candidates += candidates.rows.size();
    stats->answers += answers.rows.size();
    stats->membership_checks += prover_membership_checks;
    stats->clauses_checked += prover_clauses;
    stats->edge_choices_tried += prover_edge_choices;
    stats->envelope_seconds += Seconds(t0, t1);
    stats->prove_seconds += Seconds(t1, t2);
    stats->total_seconds += Seconds(t0, t2);
    ++stats->routed_prover;
    stats->prover_route_seconds += Seconds(t0, t2);
  }
  return answers;
}

Result<bool> HippoEngine::IsConsistentAnswer(const PlanNode& plan,
                                             const Row& tuple,
                                             const HippoOptions& options,
                                             HippoStats* stats) const {
  HIPPO_RETURN_NOT_OK(CheckSjudSupported(plan));
  std::unique_ptr<MembershipProvider> membership =
      MakeProvider(catalog_, options.membership);
  Grounder grounder(plan, membership.get());
  HProver prover(graph_);
  HIPPO_ASSIGN_OR_RETURN(
      bool ok, DecideCandidate(&grounder, &prover, tuple, options, stats));
  if (stats != nullptr) {
    stats->membership_checks += membership->NumLookups();
    stats->clauses_checked += prover.stats().clauses_checked;
    stats->edge_choices_tried += prover.stats().edge_choices_tried;
  }
  return ok;
}

}  // namespace hippo::cqa
