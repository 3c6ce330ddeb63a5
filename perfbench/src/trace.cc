#include "perfbench/src/trace.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/storage/table_version.h"

namespace perfbench {

using revere::piazza::ExecutionStats;
using revere::piazza::ReformulationStats;
using revere::query::EvalEngine;
using revere::storage::Row;
using revere::storage::Table;

revere::Result<std::vector<Row>> UnionTrace::Evaluate(
    const revere::storage::Catalog& storage,
    const std::vector<const Table*>& tables,
    const std::vector<revere::query::ConjunctiveQuery>& members,
    revere::query::EvalOptions options, std::optional<size_t> index_column,
    double before_us,
    const std::vector<revere::query::ConjunctiveQuery>* twin) {
  const bool columnar = options.engine == EvalEngine::kColumnar;
  const bool indexed = !columnar && index_column.has_value();
  revere::storage::SnapshotSet set;
  options.snapshots = &set;
  auto t0 = Clock::now();
  std::vector<std::shared_ptr<const revere::storage::TableVersion>> pinned;
  for (const Table* t : tables) pinned.push_back(set.Pin(*t));
  auto t1 = Clock::now();
  for (size_t i = 0; i < pinned.size(); ++i) {
    const auto& version = *pinned[i];
    auto b0 = Clock::now();
    if (columnar) {
      version.EnsureColumnar();
    } else if (indexed && version.size() >= options.on_demand_index_min_rows) {
      auto status = version.EnsureIndex(*index_column);
      if (!status.ok()) return status;
    } else {
      continue;
    }
    auto b1 = Clock::now();
    auto [it, first] = ensured_.try_emplace(tables[i], version.version());
    if (first || it->second == version.version()) continue;
    it->second = version.version();
    (columnar ? columnar_builds_ : index_builds_) += 1;
    (columnar ? columnar_build_us_ : index_build_us_) += Micros(b0, b1);
  }
  auto t2 = Clock::now();
  auto rows = members.empty()
                  ? revere::Result<std::vector<Row>>(std::vector<Row>{})
                  : revere::query::EvaluateUnion(storage, members, options);
  auto t3 = Clock::now();
  if (!rows.ok()) return rows;
  if (twin != nullptr) {
    auto j0 = Clock::now();
    auto marker = revere::query::EvaluateUnion(storage, *twin, options);
    auto j1 = Clock::now();
    if (!marker.ok()) return marker;
    join_us_.Add(Micros(j0, j1));
    boundary_us_.Add(Micros(t2, t3) - Micros(j0, j1));
  }
  columnar_queries_ += columnar ? 1 : 0;
  index_queries_ += indexed ? 1 : 0;
  pin_us_.Add(Micros(t0, t1));
  eval_us_.Add(Micros(t2, t3));
  traced_us_.Add(before_us + Micros(t0, t3));
  rows_out_ += static_cast<double>(rows.value().size());
  return rows;
}

void UnionTrace::Append(const UnionTrace& other) {
  pin_us_.Append(other.pin_us_);
  eval_us_.Append(other.eval_us_);
  traced_us_.Append(other.traced_us_);
  untraced_us_.Append(other.untraced_us_);
  join_us_.Append(other.join_us_);
  boundary_us_.Append(other.boundary_us_);
  index_queries_ += other.index_queries_;
  index_builds_ += other.index_builds_;
  columnar_queries_ += other.columnar_queries_;
  columnar_builds_ += other.columnar_builds_;
  index_build_us_ += other.index_build_us_;
  columnar_build_us_ += other.columnar_build_us_;
  rows_out_ += other.rows_out_;
}

void UnionTrace::Emit(Report* report) const {
  auto per = [](double x, uint64_t n) {
    return n > 0 ? x / static_cast<double>(n) : 0.0;
  };
  report->Layer("storage.pin_us_p50", pin_us_.Median());
  report->Layer("storage.index_builds_per_query",
                per(static_cast<double>(index_builds_), index_queries_));
  report->Layer("storage.index_build_us_per_query",
                per(index_build_us_, index_queries_));
  report->Layer("storage.columnar_builds_per_query",
                per(static_cast<double>(columnar_builds_), columnar_queries_));
  report->Layer("storage.columnar_build_us_per_query",
                per(columnar_build_us_, columnar_queries_));
  report->Layer("query.eval_us_p50", eval_us_.Median());
  report->Layer("query.join_us_p50", join_us_.Median());
  report->Layer("query.boundary_us_p50", boundary_us_.Median());
  report->Layer("query.rows_out_per_query", per(rows_out_, count()));
  // Layer time of the mean traced query over the mean untraced one.
  report->Layer("trace.unattributed_frac",
                untraced_us_.Mean() > 0
                    ? 1.0 - traced_us_.Mean() / untraced_us_.Mean()
                    : 0.0);
  report->Layer("trace.overhead_frac",
                untraced_us_.Median() > 0
                    ? traced_us_.Median() / untraced_us_.Median() - 1.0
                    : 0.0);
  report->Detail("traced_queries", static_cast<double>(count()));
  report->Detail("untraced_baseline_queries",
                 static_cast<double>(untraced_us_.count()));
}

namespace {

/// Distinct stored tables named in `rewritings`' bodies.
std::vector<const Table*> BodyTables(
    const revere::storage::Catalog& storage,
    const std::vector<revere::query::ConjunctiveQuery>& rewritings) {
  std::vector<const Table*> out;
  std::set<std::string> seen;
  for (const auto& q : rewritings) {
    for (const auto& atom : q.body()) {
      if (!seen.insert(atom.relation).second) continue;
      auto table = storage.GetTable(atom.relation);
      if (table.ok()) out.push_back(table.value());
    }
  }
  return out;
}

/// Answer and EvaluateUnion merge rewritings differently, so the
/// decomposition is checked as a set.
std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace

std::vector<Row> AnswerTrace::Answer(
    const revere::piazza::PdmsNetwork& plain,
    const revere::piazza::NetworkCostModel& plain_cost,
    const revere::piazza::PdmsNetwork& mirror,
    const revere::query::ConjunctiveQuery& query,
    const revere::piazza::ReformulationOptions& options, Report* report) {
  report->Attempt();
  ExecutionStats stats;
  auto a0 = Clock::now();
  auto answer = plain.Answer(query, options, &stats, plain_cost);
  auto a1 = Clock::now();

  ReformulationStats rs;
  auto t0 = Clock::now();
  auto rewritings = mirror.Reformulate(query, options, &rs);
  auto t1 = Clock::now();
  if (!answer.ok() || !rewritings.ok()) {
    report->Fail("replayed query failed");
    return {};
  }
  auto rows = unions_.Evaluate(
      mirror.storage(), BodyTables(mirror.storage(), rewritings.value()),
      rewritings.value(), plain_cost.eval, std::nullopt, Micros(t0, t1));
  if (!rows.ok() || Sorted(rows.value()) != Sorted(answer.value())) {
    report->Fail("traced decomposition differs from Answer");
    return {};
  }
  unions_.Untraced(Micros(a0, a1));
  reformulate_us_.Add(Micros(t0, t1));
  rewritings_ += static_cast<double>(stats.rewritings_evaluated);
  contacts_ += static_cast<double>(stats.peers_contacted);
  retries_ += static_cast<double>(stats.completeness.retries_attempted);
  hits_ += rs.plan_cache_hits;
  misses_ += rs.plan_cache_misses;
  if (rs.plan_cache_hits == 0) {
    nodes_expanded_ += static_cast<double>(rs.nodes_expanded);
    useful_ += static_cast<double>(rs.rewritings);
    pruned_cost_ += static_cast<double>(rs.pruned_cost);
    pruned_redundant_ += static_cast<double>(rs.pruned_redundant);
  }
  return std::move(answer).value();
}

void AnswerTrace::Emit(Report* report) const {
  const double n = static_cast<double>(reformulate_us_.count());
  auto per = [n](double x) { return n > 0 ? x / n : 0.0; };
  report->Layer("piazza.reformulate_us_p50", reformulate_us_.Median());
  report->Layer("piazza.plan_cache_hit_rate",
                hits_ + misses_ > 0 ? static_cast<double>(hits_) /
                                          static_cast<double>(hits_ + misses_)
                                    : 0.0);
  report->Layer("piazza.rewritings_per_query", per(rewritings_));
  report->Layer("piazza.contacts_per_query", per(contacts_));
  report->Layer("piazza.retries_per_query", per(retries_));
  report->Layer("route.nodes_expanded_per_query", per(nodes_expanded_));
  report->Layer("route.useful_frac",
                nodes_expanded_ > 0 ? useful_ / nodes_expanded_ : 0.0);
  report->Layer("route.pruned_cost_per_query", per(pruned_cost_));
  report->Layer("route.pruned_redundant_per_query", per(pruned_redundant_));
  unions_.Emit(report);
}

}  // namespace perfbench
