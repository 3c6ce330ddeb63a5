#ifndef REVERE_ROUTE_ROUTE_TABLE_H_
#define REVERE_ROUTE_ROUTE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

namespace revere::route {

/// Per-peer routing cost estimates for the scale-aware reformulation
/// search (ISSUE 9). Piazza's §3 argues a thousand-peer PDMS cannot
/// enumerate the rewriting tree exhaustively; the route table supplies
/// the edge weights that let `Reformulate` rank and budget paths: an
/// EWMA of observed contact latency plus an EWMA reachability score
/// (fraction of recent contacts that succeeded), blended into one
/// dimensionless cost per peer.
///
/// Sources, in layering order:
///  - live feedback: `ObservedContact` is fed from every real peer
///    contact (PdmsNetwork wires it through
///    NetworkCostModel::route_feedback);
///  - seeding: `route::SeedFromBreakers` / `SeedFromLatencyHistogram`
///    (src/route/seed.h) bulk-prime the table from the serve-layer
///    breaker outcomes and the obs latency histograms;
///  - static fallback: `SetStaticCost` pins a deterministic cost, for
///    benches and fuzzing where answers must not depend on timing.
///
/// Concurrency: one shared_mutex over the peer map; reads on the
/// reformulation hot path take the shared lock. The `epoch` counter
/// bumps only on *bulk* mutations (seed/reset/static overrides), never
/// per observation — plan-cache keys may incorporate the epoch without
/// thrashing on every contact.
class RouteTable {
 public:
  /// Cost assigned to a peer with no estimate (and the latency scale
  /// observations are normalized by): one "hop unit". With every peer
  /// unknown, every edge of the reformulation search costs 1.0, so a
  /// node's cost is its depth and nodes pop in breadth-first order.
  static constexpr double kDefaultCost = 1.0;

  RouteTable() = default;
  RouteTable(const RouteTable&) = delete;
  RouteTable& operator=(const RouteTable&) = delete;

  /// The routing cost of entering `peer`: latency EWMA normalized by
  /// `latency_scale_ms`, divided by the reachability EWMA (an unreliable
  /// peer costs proportionally more), clamped to [min_cost, max_cost].
  /// Unknown peers cost kDefaultCost.
  double CostOf(const std::string& peer) const;

  /// Live feedback from one peer contact: folds `elapsed_ms` into the
  /// latency EWMA and `ok` into the reachability EWMA. Does not bump
  /// the epoch.
  void ObservedContact(const std::string& peer, double elapsed_ms, bool ok);

  /// Pins a deterministic static cost for `peer`, overriding any
  /// observed estimate until the next Reset. The fallback for benches
  /// and fuzzing. Bumps the epoch.
  void SetStaticCost(const std::string& peer, double cost);

  /// Bulk-seeds `peer`'s latency/reachability estimates (used by the
  /// seed.h adapters). Bumps the epoch once per call.
  void SeedEstimate(const std::string& peer, double latency_ms,
                    double reachability);

  /// Drops every estimate and override. Bumps the epoch.
  void Reset();

  /// Structural version: bumped by bulk mutations (SetStaticCost,
  /// SeedEstimate, Reset) but not by per-contact observation, so it is
  /// stable enough to key caches on.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Number of peers with any estimate or override.
  size_t size() const;

  /// Point-in-time estimate for tests/benches; zeros when unknown.
  struct Estimate {
    double latency_ms = 0.0;
    double reachability = 1.0;
    bool has_static_cost = false;
    double static_cost = 0.0;
    uint64_t samples = 0;
  };
  Estimate GetEstimate(const std::string& peer) const;

  // ---- Tuning knobs (set before traffic; not synchronized) ----------

  /// EWMA smoothing factor for both latency and reachability.
  void set_alpha(double alpha) { alpha_ = alpha; }
  /// Milliseconds worth one cost unit (default: 5ms, the simulated
  /// per-peer round trip).
  void set_latency_scale_ms(double ms) { latency_scale_ms_ = ms; }

 private:
  struct PeerState {
    double latency_ewma_ms = 0.0;
    double reach_ewma = 1.0;
    bool has_static_cost = false;
    double static_cost = 0.0;
    uint64_t samples = 0;
  };

  double alpha_ = 0.2;
  double latency_scale_ms_ = 5.0;
  static constexpr double kMinCost = 0.1;
  static constexpr double kMaxCost = 100.0;

  mutable std::shared_mutex mu_;
  std::map<std::string, PeerState> peers_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace revere::route

#endif  // REVERE_ROUTE_ROUTE_TABLE_H_
