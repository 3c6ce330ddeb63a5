// The traced replay: each workload's traced run calls the public
// functions of the layers an answer crosses and times each call from
// here. No span is added inside the library.
//
// UnionTrace is the one decomposition of a union evaluation that every
// workload uses, so storage.*, query.* and trace.* mean the same thing
// on each: SnapshotSet::Pin for every table the union reads, then the
// per-version structure its engine probes (TableVersion::EnsureColumnar
// on the columnar engine, TableVersion::EnsureIndex on the probed
// column otherwise), then query::EvaluateUnion over the pinned set.
//
// AnswerTrace decomposes PdmsNetwork::Answer (fig2_serve,
// route_churn_1000): each query is answered untraced on one network,
// and on an identical mirror network it is run as Reformulate (piazza +
// route) followed by the UnionTrace decomposition. Two networks keep
// the plan-cache hit pattern of both streams the same as the untraced
// run's.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <map>
#include <optional>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/piazza/pdms.h"
#include "src/query/evaluate.h"
#include "src/storage/catalog.h"
#include "src/storage/table.h"

namespace perfbench {

class UnionTrace {
 public:
  /// One untraced evaluation of the same stream: the baseline of
  /// trace.overhead_frac and trace.unattributed_frac.
  void Untraced(double us) { untraced_us_.Add(us); }

  /// Evaluates `members` decomposed. Every table in `tables` is pinned;
  /// on the slots engine the version's index on `index_column` is
  /// ensured when the engine would build it (on-demand size rule). A
  /// version that differs from the last one this trace ensured for its
  /// table counts as one build; the first version seen of each table is
  /// taken as built in set-up.
  /// `before_us` is layer time already spent on this query
  /// (reformulation); it counts toward the traced total. `twin`, when
  /// set, is evaluated next over the same pinned versions, untimed in
  /// the traced total: the constant-head twin of `members`, whose time
  /// is the join's share of the evaluation (EXPERIMENTS.md §P4); the
  /// rest of the evaluation is the output boundary.
  revere::Result<std::vector<revere::storage::Row>> Evaluate(
      const revere::storage::Catalog& storage,
      const std::vector<const revere::storage::Table*>& tables,
      const std::vector<revere::query::ConjunctiveQuery>& members,
      revere::query::EvalOptions options,
      std::optional<size_t> index_column, double before_us = 0.0,
      const std::vector<revere::query::ConjunctiveQuery>* twin = nullptr);

  /// Adds `other`'s samples and counts (readers on several threads).
  void Append(const UnionTrace& other);

  size_t count() const { return traced_us_.count(); }

  /// storage.pin_us_p50, storage.*_builds_per_query,
  /// storage.*_build_us_per_query, query.* and trace.*.
  void Emit(Report* report) const;

 private:
  std::map<const revere::storage::Table*, uint64_t> ensured_;
  Samples pin_us_, eval_us_, traced_us_, untraced_us_, join_us_,
      boundary_us_;
  uint64_t index_queries_ = 0, index_builds_ = 0;
  uint64_t columnar_queries_ = 0, columnar_builds_ = 0;
  double index_build_us_ = 0, columnar_build_us_ = 0, rows_out_ = 0;
};

class AnswerTrace {
 public:
  /// Answers `query` untraced on `plain` and decomposed on `mirror`;
  /// records both and checks that they return the same rows. Returns
  /// the untraced answer (empty after a failure, which is reported).
  std::vector<revere::storage::Row> Answer(
      const revere::piazza::PdmsNetwork& plain,
      const revere::piazza::NetworkCostModel& plain_cost,
      const revere::piazza::PdmsNetwork& mirror,
      const revere::query::ConjunctiveQuery& query,
      const revere::piazza::ReformulationOptions& options, Report* report);

  /// The piazza and route metrics, then UnionTrace::Emit.
  void Emit(Report* report) const;

 private:
  UnionTrace unions_;
  Samples reformulate_us_;
  double rewritings_ = 0, contacts_ = 0, retries_ = 0;
  // Search work, counted only where it was done (plan-cache misses): on
  // a hit the stats repeat the cached run's counters.
  double nodes_expanded_ = 0, useful_ = 0, pruned_cost_ = 0,
         pruned_redundant_ = 0;
  uint64_t hits_ = 0, misses_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
