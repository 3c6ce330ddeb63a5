#ifndef REVERE_FUZZ_REFERENCE_REFERENCE_SEARCH_H_
#define REVERE_FUZZ_REFERENCE_REFERENCE_SEARCH_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/piazza/pdms.h"
#include "src/piazza/reformulation.h"
#include "src/query/cq.h"
#include "src/storage/value.h"

namespace revere::fuzz {

/// Reference implementations for the `pruned_vs_exhaustive` fuzz oracle
/// (oracle 10). They exist only to be compared against the product
/// reformulation path, so they favour the plainest correct algorithm
/// over speed, and read the network only through its public accessors
/// (`mappings()`, `storage()`, `IsStored`).

/// The relations that can reach stored data: the least fixpoint of
/// "stored, or some mapping use rewrites it into a body whose relations
/// are all productive", recomputed from scratch by sweeping every
/// mapping until nothing changes. PdmsNetwork maintains the same set
/// incrementally; this is the independent computation it is checked
/// against.
std::unordered_set<std::string> ReferenceProductive(
    const piazza::PdmsNetwork& net);

/// The exhaustive breadth-first reformulation search: a FIFO work list,
/// and at every node a scan of every mapping (both directions of
/// bidirectional ones) against every goal. Honors max_depth,
/// max_rewritings, prune_duplicates, prune_unreachable (against
/// ReferenceProductive) and prune_contained; the route budget and
/// redundant-path knobs do not apply, so `pruned_cost` and
/// `pruned_redundant` stay 0. Rewritings come out in the order the
/// product search emits them under uniform costs and no budget; their
/// fresh-variable names differ, because every attempted mapping
/// application draws a fresh id here.
std::vector<query::ConjunctiveQuery> ReferenceReformulate(
    const piazza::PdmsNetwork& net, const query::ConjunctiveQuery& query,
    const piazza::ReformulationOptions& options,
    piazza::ReformulationStats* stats);

/// Answers `query` from its `rewritings` the plain sequential way:
/// evaluate each rewriting, contact every peer it reads other than the
/// query's own (sorted order, `cost.retry.max_attempts` attempts
/// through `cost.faults` when set), then drop the rewriting (best
/// effort) or fail the answer (fail fast) when a peer stays
/// unreachable, and union the surviving rows in first-occurrence order.
/// Breakers, retry budgets, deadlines and tracing are not modelled.
Result<std::vector<storage::Row>> ReferenceAnswer(
    const piazza::PdmsNetwork& net, const query::ConjunctiveQuery& query,
    const std::vector<query::ConjunctiveQuery>& rewritings,
    const piazza::NetworkCostModel& cost);

}  // namespace revere::fuzz

#endif  // REVERE_FUZZ_REFERENCE_REFERENCE_SEARCH_H_
