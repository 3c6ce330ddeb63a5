#ifndef REVERE_PIAZZA_REFORMULATION_H_
#define REVERE_PIAZZA_REFORMULATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/query/cq.h"

namespace revere::piazza {

/// Knobs for transitive-closure query reformulation (§3.1.1). Every
/// field participates in the plan-cache key (two calls with different
/// options never share a cached plan) except `use_plan_cache` itself
/// and the ignored `use_route_search`.
struct ReformulationOptions {
  /// Maximum mapping-application depth along any path.
  int max_depth = 12;
  /// Cap on emitted rewritings.
  size_t max_rewritings = 512;
  /// Heuristic: drop reformulations syntactically identical (up to
  /// variable renaming) to ones already seen — "prune redundant paths".
  bool prune_duplicates = true;
  /// Heuristic: drop reformulations containing a relation that cannot
  /// reach stored data through any mapping chain — "prune irrelevant
  /// paths".
  bool prune_unreachable = true;
  /// Stronger (and costlier) redundancy pruning: drop an emitted
  /// rewriting when it is *semantically contained* in one already
  /// emitted (Chandra-Merlin check per pair) — evaluating it cannot add
  /// answers. Off by default; syntactic dedup usually suffices.
  bool prune_contained = false;
  /// Consult (and fill) the network's reformulation plan cache. The
  /// cache is exact — answers are byte-identical either way — so this
  /// exists for differential tests and cold-path benchmarks.
  bool use_plan_cache = true;

  // ---- Scale-aware routing (ISSUE 9) --------------------------------
  //
  // Reformulation is a best-first search ordered by accumulated
  // peer-path cost from the network's RouteTable, expanding each node
  // through a relation→mapping index. With every budget below at its
  // default the search is exhaustive; with an unseeded route table
  // every hop costs the same and nodes pop in breadth-first order.

  /// Ignored. The route search is the only search; the field remains
  /// only so existing callers that assign it still compile, and it
  /// reaches neither the search nor the plan-cache key.
  bool use_route_search = false;
  /// Cost budget: a search path whose accumulated RouteTable edge cost
  /// exceeds this is not expanded (counted in `pruned_cost`). 0 means
  /// unlimited.
  double max_path_cost = 0.0;
  /// Redundant-path elimination beyond syntactic dedup: skip expansions
  /// that re-enter a peer already on the path (cycle elimination) and
  /// drop emitted rewritings whose canonical fingerprint was already
  /// kept (counted in `pruned_redundant`).
  bool prune_redundant_paths = false;
};

/// Instrumentation from one reformulation (drives bench C3 and P2).
/// On a plan-cache hit the search counters (`nodes_expanded`,
/// `pruned_*`, `rewritings`) report the *cached run's* work — what it
/// cost to build the plan being reused — never zeros; only the
/// `plan_cache_*` flags tell the two apart.
struct ReformulationStats {
  size_t nodes_expanded = 0;
  size_t pruned_duplicates = 0;
  size_t pruned_unreachable = 0;
  size_t pruned_depth = 0;
  size_t pruned_contained = 0;
  /// Expansions dropped because their accumulated
  /// peer-path cost exceeded `max_path_cost` — the honest completeness
  /// ledger for cost-bounded search (a nonzero value means the
  /// rewriting set may be a subset of the exhaustive one). Reported as
  /// `rewritings_pruned_cost` in docs/benches.
  size_t pruned_cost = 0;
  /// Expansions/emissions dropped by redundant-path
  /// elimination (peer-path cycles, subsumed canonical fingerprints).
  /// Reported as `rewritings_pruned_redundant` in docs/benches.
  size_t pruned_redundant = 0;
  size_t rewritings = 0;
  /// 1 when this reformulation was served from the plan cache.
  size_t plan_cache_hits = 0;
  /// 1 when the cache was consulted and missed (computed + inserted).
  /// Both zero means the cache was disabled or bypassed.
  size_t plan_cache_misses = 0;
};

/// Canonical form of a CQ for duplicate pruning: α-renamed via
/// query::Canonicalize, then body atoms sorted (reformulation dedup
/// wants atom order ignored, unlike the order-preserving plan-cache
/// key).
std::string CanonicalKey(const query::ConjunctiveQuery& q);

/// One reformulation step: rewrites atom `goal_idx` of `q` through the
/// mapping application map_target → map_source. Unifies the goal with
/// each target-body atom, checks that the variables the query still
/// needs are exported through the target head, and splices in the
/// instantiated source body. Appends each successful rewriting to
/// `out`; `fresh_id` names the application's fresh variables
/// (`_m<fresh_id>_…`).
void ApplyMappingToGoal(const query::ConjunctiveQuery& q, size_t goal_idx,
                        const query::ConjunctiveQuery& map_source,
                        const query::ConjunctiveQuery& map_target,
                        int fresh_id,
                        std::vector<query::ConjunctiveQuery>* out);

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_REFORMULATION_H_
