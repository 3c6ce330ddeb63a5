#include "src/fuzz/reference/reference_search.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/piazza/peer.h"
#include "src/query/containment.h"
#include "src/query/evaluate.h"

namespace revere::fuzz {

namespace {

using piazza::PdmsNetwork;
using piazza::ReformulationOptions;
using piazza::ReformulationStats;
using query::ConjunctiveQuery;
using storage::Row;

struct WorkItem {
  ConjunctiveQuery query;
  int depth = 0;
};

}  // namespace

std::unordered_set<std::string> ReferenceProductive(const PdmsNetwork& net) {
  std::unordered_set<std::string> productive;
  for (const auto& name : net.storage().TableNames()) productive.insert(name);
  auto body_productive = [&](const ConjunctiveQuery& q) {
    for (const auto& a : q.body()) {
      if (productive.count(a.relation) == 0) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& m : net.mappings()) {
      // Forward use: target atoms rewrite into the source body.
      if (body_productive(m.glav.source)) {
        for (const auto& a : m.glav.target.body()) {
          changed |= productive.insert(a.relation).second;
        }
      }
      // Backward use for equality mappings.
      if (m.bidirectional && body_productive(m.glav.target)) {
        for (const auto& a : m.glav.source.body()) {
          changed |= productive.insert(a.relation).second;
        }
      }
    }
  }
  return productive;
}

std::vector<ConjunctiveQuery> ReferenceReformulate(
    const PdmsNetwork& net, const ConjunctiveQuery& query,
    const ReformulationOptions& options, ReformulationStats* stats) {
  const std::unordered_set<std::string> productive = ReferenceProductive(net);
  ReformulationStats local;
  std::vector<ConjunctiveQuery> results;
  std::set<std::string> seen;
  seen.insert(piazza::CanonicalKey(query));
  int fresh_id = 0;

  std::deque<WorkItem> worklist;
  worklist.push_back({query, 0});
  while (!worklist.empty() && results.size() < options.max_rewritings) {
    WorkItem item = std::move(worklist.front());
    worklist.pop_front();
    ++local.nodes_expanded;

    // Irrelevant-path pruning: some atom can never reach stored data.
    if (options.prune_unreachable) {
      bool dead = false;
      for (const auto& a : item.query.body()) {
        if (productive.count(a.relation) == 0) dead = true;
      }
      if (dead) {
        ++local.pruned_unreachable;
        continue;
      }
    }

    // A query fully grounded in stored relations is an answerable
    // rewriting; stored relations may also be mapped, so expansion
    // continues either way.
    bool all_stored = true;
    for (const auto& a : item.query.body()) {
      if (!net.IsStored(a.relation)) all_stored = false;
    }
    bool contained = false;
    if (all_stored && options.prune_contained) {
      for (const auto& prior : results) {
        if (query::Contains(prior, item.query)) {
          ++local.pruned_contained;
          contained = true;
          break;
        }
      }
    }
    if (all_stored && !contained) {
      results.push_back(item.query);
      if (results.size() >= options.max_rewritings) break;
    }
    if (item.depth >= options.max_depth) {
      if (!all_stored) ++local.pruned_depth;
      continue;
    }

    std::vector<ConjunctiveQuery> expansions;
    for (size_t goal_idx = 0; goal_idx < item.query.body().size();
         ++goal_idx) {
      for (const auto& m : net.mappings()) {
        piazza::ApplyMappingToGoal(item.query, goal_idx, m.glav.source,
                                   m.glav.target, fresh_id++, &expansions);
        if (m.bidirectional) {
          piazza::ApplyMappingToGoal(item.query, goal_idx, m.glav.target,
                                     m.glav.source, fresh_id++, &expansions);
        }
      }
    }
    for (auto& e : expansions) {
      if (options.prune_duplicates &&
          !seen.insert(piazza::CanonicalKey(e)).second) {
        ++local.pruned_duplicates;
        continue;
      }
      worklist.push_back({std::move(e), item.depth + 1});
    }
  }
  local.rewritings = results.size();
  if (stats != nullptr) *stats = local;
  return results;
}

Result<std::vector<Row>> ReferenceAnswer(
    const PdmsNetwork& net, const ConjunctiveQuery& query,
    const std::vector<ConjunctiveQuery>& rewritings,
    const piazza::NetworkCostModel& cost) {
  std::string query_peer =
      query.body().empty()
          ? ""
          : piazza::SplitQualifiedName(query.body().front().relation).first;
  std::vector<Row> out;
  std::unordered_set<Row, storage::RowHash> emitted;
  for (const ConjunctiveQuery& rw : rewritings) {
    Result<std::vector<Row>> rows = query::EvaluateCQ(net.storage(), rw);
    if (!rows.ok()) continue;  // a rewriting over a missing table
    std::set<std::string> peers;
    for (const auto& a : rw.body()) {
      std::string peer = piazza::SplitQualifiedName(a.relation).first;
      if (!peer.empty() && peer != query_peer) peers.insert(peer);
    }
    bool reachable = true;
    for (const auto& peer : peers) {
      if (cost.faults == nullptr) break;
      Status contact;
      for (int attempt = 0; attempt < std::max(1, cost.retry.max_attempts);
           ++attempt) {
        contact = cost.faults
                      ->Contact(peer, cost.per_peer_round_trip_ms,
                                cost.retry.deadline_ms)
                      .status;
        if (contact.ok()) break;
      }
      if (contact.ok()) continue;
      if (cost.failure_policy == piazza::FailurePolicy::kFailFast) {
        return contact;
      }
      reachable = false;
      break;
    }
    if (!reachable) continue;
    for (Row& row : rows.value()) {
      if (emitted.insert(row).second) out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace revere::fuzz
