// route_churn_1000: the 1000-peer kSmallWorld PDMS of R3 (datagen
// seed 2003), one row per peer, driven from one thread. Each round is
// one churn event — a new peer joins at a rotating attach point
// (AddPeer + AddStoredRelation + AddMapping) and the previous joiner is
// set down and restored through a seeded FaultInjector — then 40
// neighbourhood all-courses queries at hop budget 3 with the plan cache
// on, then one whole-network query at budget 20 from a random peer.
// The 40 origins are a working set, redrawn every 10 rounds and then
// warmed (answered once, untimed): how far a hop-3 neighbourhood
// reaches differs from peer to peer, and with one working set per run
// the seed chose query_p50_ms and query_tail_ms as much as the code
// did.
// Structural mutation stays sequential: it must be externally
// synchronized with queries.
//
// Joiners accumulate, so a run is a sequence of episodes, each on a
// freshly built network with a fixed number of rounds; every episode's
// build is one set-up sample. Recall is whole-network answer rows over
// the generator's total_rows (joiners store no rows). At the end of
// each episode a cached answer is compared with the same query re-run
// after ClearPlanCache(). The traced run replays the same rounds on an
// identical mirror network (see trace.h).

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/storage/table.h"

namespace perfbench {
namespace {

using revere::Rng;
using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::ExecutionStats;
using revere::piazza::FaultInjector;
using revere::piazza::NetworkCostModel;
using revere::piazza::PdmsNetwork;
using revere::piazza::PeerMapping;
using revere::piazza::QualifiedName;
using revere::piazza::ReformulationOptions;
using revere::query::ConjunctiveQuery;
using revere::storage::Row;
using revere::storage::TableSchema;

constexpr int kSetups = 3;
constexpr size_t kWorkingSet = 40;
constexpr size_t kRoundsPerWorkingSet = 10;
constexpr double kNeighbourhoodBudget = 3.0;
constexpr double kWholeNetworkBudget = 20.0;

struct Scale {
  size_t peers;
  size_t rounds_per_episode;
};

Scale ScaleOf(const RunConfig& config) {
  return config.tiny ? Scale{24, 4} : Scale{1000, 100};
}

/// Route search as bench_route_scale runs it: hop-budgeted (uniform
/// costs make the budget a hop radius) and cycle-eliminated.
ReformulationOptions Budgeted(double budget) {
  ReformulationOptions options;
  options.use_route_search = true;
  options.max_path_cost = budget;
  options.prune_redundant_paths = true;
  options.max_depth = 64;
  options.max_rewritings = 8192;
  return options;
}

/// One network plus the fault injector its queries contact through.
struct Network {
  explicit Network(uint64_t seed) : faults(seed) { cost.faults = &faults; }
  PdmsNetwork net;
  FaultInjector faults;
  NetworkCostModel cost;
};

/// Inputs shared by every episode of a run: the same for a given seed.
struct Plan {
  PdmsGenOptions gen;
  uint64_t seed = 0;
  size_t attach_offset = 0;
};

Plan MakePlan(const RunConfig& config) {
  Plan plan;
  const Scale scale = ScaleOf(config);
  plan.gen.topology = Topology::kSmallWorld;
  plan.gen.peers = scale.peers;
  plan.gen.rows_per_peer = 1;
  // The overlay is R3's (EXPERIMENTS.md): recall depends on its shape,
  // so it stays fixed; the seed picks origins, attach points and faults.
  plan.gen.seed = 2003;
  plan.seed = config.seed;
  plan.attach_offset = Rng(config.seed ^ 0x5eedULL).Index(scale.peers);
  return plan;
}

/// Origin peers of the neighbourhood queries in working set `phase` of
/// episode `episode`: the same for a given seed.
std::vector<size_t> WorkingSet(const Plan& plan, uint64_t episode,
                               size_t phase) {
  Rng rng((plan.seed ^ 0x5eedULL) + (episode * 1000 + phase + 1) *
                                        0x9e3779b97f4a7c15ULL);
  std::vector<size_t> origins;
  for (size_t i = 0; i < kWorkingSet; ++i) {
    origins.push_back(rng.Index(plan.gen.peers));
  }
  return origins;
}

/// Answers every working-set query once, so its plan is cached.
bool Warm(Network* n, const PdmsGenReport& gen,
          const std::vector<size_t>& origins) {
  for (size_t origin : origins) {
    if (!n->net.Answer(AllCoursesQuery(gen, origin),
                       Budgeted(kNeighbourhoodBudget), nullptr, n->cost)
             .ok()) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Network> Build(const Plan& plan, uint64_t seed,
                               uint64_t episode, PdmsGenReport* gen,
                               Report* report) {
  auto n = std::make_unique<Network>(seed);
  auto built = BuildUniversityPdms(&n->net, plan.gen);
  if (!built.ok()) {
    report->Fail("build: " + built.status().ToString());
    return nullptr;
  }
  *gen = built.value();
  if (!Warm(n.get(), *gen, WorkingSet(plan, episode, 0))) {
    report->Fail("warm-up answer failed");
    return nullptr;
  }
  return n;
}

/// The churn event: joiner `serial` maps itself onto `attach`; the
/// previous joiner leaves (fault) and comes back. `mutation_us`, when
/// set, receives the time spent in AddPeer, AddStoredRelation and
/// AddMapping.
bool Churn(Network* n, const PdmsGenReport& gen, size_t serial, size_t attach,
           double* mutation_us) {
  std::string name = "joiner" + std::to_string(serial);
  const std::string& rel = gen.relation_names[attach];
  auto t0 = Clock::now();
  if (!n->net.AddPeer(name).ok()) return false;
  auto table = n->net.AddStoredRelation(
      name, TableSchema::AllStrings("course", {"id", "title", "instructor"}));
  if (!table.ok()) return false;
  auto t2 = Clock::now();
  auto source = ConjunctiveQuery::Parse("m(I, T, P) :- " +
                                        QualifiedName(name, "course") +
                                        "(I, T, P)");
  auto target = ConjunctiveQuery::Parse(
      "m(I, T, P) :- " + QualifiedName(gen.peer_names[attach], rel) +
      "(I, T, P)");
  if (!source.ok() || !target.ok()) return false;
  PeerMapping mapping{{name + "-join", source.value(), target.value()},
                      name,
                      gen.peer_names[attach],
                      true};
  auto t3 = Clock::now();
  if (!n->net.AddMapping(std::move(mapping)).ok()) return false;
  auto t4 = Clock::now();
  if (serial > 0) {
    std::string prev = "joiner" + std::to_string(serial - 1);
    n->faults.SetDown(prev);
    n->faults.Restore(prev);
  }
  if (mutation_us != nullptr) {
    *mutation_us = Micros(t0, t2) + Micros(t3, t4);
  }
  return true;
}

/// One query of a round: origin peer and hop budget.
struct Query {
  size_t origin;
  double budget;
  bool whole_network;
};

std::vector<Query> RoundQueries(const std::vector<size_t>& working_set,
                                Rng* rng, size_t peers) {
  std::vector<Query> qs;
  for (size_t origin : working_set) {
    qs.push_back({origin, kNeighbourhoodBudget, false});
  }
  qs.push_back({rng->Index(peers), kWholeNetworkBudget, true});
  return qs;
}

/// What the traced replay accumulates.
struct Trace {
  Samples mutation_us;  // AddPeer + AddStoredRelation + AddMapping
  AnswerTrace answers;
};

/// A built network (and, for the traced replay, its identical mirror)
/// ready for one episode.
struct Episode {
  std::unique_ptr<Network> net;
  std::unique_ptr<Network> mirror;
  PdmsGenReport gen;
  uint64_t index = 0;
};

/// Builds and warms one episode's network(s); the primary network's
/// build is one set-up sample.
std::unique_ptr<Episode> BuildEpisode(const Plan& plan, const RunConfig& config,
                                      uint64_t index, Report* report,
                                      EndToEnd* e2e) {
  auto ep = std::make_unique<Episode>();
  ep->index = index;
  auto t0 = Clock::now();
  ep->net = Build(plan, config.seed + index, index, &ep->gen, report);
  if (ep->net == nullptr) return nullptr;
  e2e->setup_s.Add(Seconds(t0, Clock::now()));
  if (config.trace) {
    PdmsGenReport unused;
    ep->mirror = Build(plan, config.seed + index, index, &unused, report);
    if (ep->mirror == nullptr) return nullptr;
  }
  return ep;
}

/// Rounds of churn + queries on `ep` until it has had its rounds or
/// `stop` passes. With a mirror, each round is also replayed traced:
/// the mirror receives the same churn and the decomposed queries.
void RunEpisode(Episode* ep, const Plan& plan, const RunConfig& config,
                Rng* rng, Clock::time_point stop, Report* report,
                EndToEnd* e2e, double* busy_s, Trace* trace) {
  const Scale scale = ScaleOf(config);
  Network* n = ep->net.get();
  Network* mirror = ep->mirror.get();
  const PdmsGenReport& gen = ep->gen;
  std::vector<size_t> working_set;
  size_t rounds = 0;
  for (; rounds < scale.rounds_per_episode && Clock::now() < stop; ++rounds) {
    if (rounds % kRoundsPerWorkingSet == 0) {
      const size_t phase = rounds / kRoundsPerWorkingSet;
      working_set = WorkingSet(plan, ep->index, phase);
      // Build warmed the first working set.
      if (phase > 0 &&
          (!Warm(n, gen, working_set) ||
           (mirror != nullptr && !Warm(mirror, gen, working_set)))) {
        report->Fail("warm-up answer failed");
        return;
      }
    }
    const size_t attach = (plan.attach_offset + rounds * 13) % scale.peers;
    report->Attempt();
    auto c0 = Clock::now();
    bool joined = Churn(n, gen, rounds, attach, nullptr);
    auto c1 = Clock::now();
    if (!joined) {
      report->Fail("churn event failed");
      return;
    }
    e2e->update_ms.Add(Millis(c0, c1));
    if (mirror != nullptr) {
      double mutation_us = 0.0;
      if (!Churn(mirror, gen, rounds, attach, &mutation_us)) {
        report->Fail("mirror churn event failed");
        return;
      }
      trace->mutation_us.Add(mutation_us);
    }
    for (const Query& q : RoundQueries(working_set, rng, scale.peers)) {
      ConjunctiveQuery cq = AllCoursesQuery(gen, q.origin);
      ReformulationOptions options = Budgeted(q.budget);
      std::vector<Row> rows;
      if (mirror != nullptr) {
        rows = trace->answers.Answer(n->net, n->cost, mirror->net, cq, options,
                                     report);
      } else {
        report->Attempt();
        auto a0 = Clock::now();
        auto answer = n->net.Answer(cq, options, nullptr, n->cost);
        auto a1 = Clock::now();
        if (!answer.ok()) {
          report->Fail("answer: " + answer.status().ToString());
          continue;
        }
        rows = std::move(answer).value();
        e2e->query_ms.Add(Millis(a0, a1));
        *busy_s += Seconds(a0, a1);
      }
      if (rows.size() > gen.total_rows) {
        report->Fail("answer has more rows than the network stores");
      }
      if (q.whole_network) {
        e2e->recall_rows += static_cast<double>(rows.size());
        e2e->recall_expected += static_cast<double>(gen.total_rows);
      }
    }
  }
  if (rounds == 0) return;
  // A cached answer must equal the same query planned from scratch.
  ConjunctiveQuery cq =
      AllCoursesQuery(gen, working_set[ep->index % working_set.size()]);
  ReformulationOptions options = Budgeted(kNeighbourhoodBudget);
  ExecutionStats cached_stats;
  auto cached = n->net.Answer(cq, options, &cached_stats, n->cost);
  n->net.ClearPlanCache();
  auto fresh = n->net.Answer(cq, options, nullptr, n->cost);
  report->Attempt();
  if (cached.ok() && config.corrupt && !cached.value().empty()) {
    cached.value()[0][0] = revere::storage::Value("corrupted");
  }
  if (!cached.ok() || !fresh.ok() || cached.value() != fresh.value() ||
      cached_stats.plan_cache_hits != 1) {
    report->Fail("cached answer differs from the answer after ClearPlanCache");
  }
}

}  // namespace

Report RunRouteChurn(const RunConfig& config) {
  Report report;
  EndToEnd e2e;
  const Plan plan = MakePlan(config);
  Rng rng(config.seed);
  double busy_s = 0.0;
  Trace trace;
  // Set-up builds the first episodes' networks; when the window uses
  // them up, the next one is built inside it (one more set-up sample,
  // outside every timed operation).
  std::deque<std::unique_ptr<Episode>> ready;
  uint64_t episodes = 0;
  for (int i = 0; i < (config.trace ? 1 : kSetups); ++i) {
    ready.push_back(BuildEpisode(plan, config, episodes++, &report, &e2e));
    if (ready.back() == nullptr) return report;
  }
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  while (Clock::now() < stop && report.correct()) {
    if (ready.empty()) {
      ready.push_back(BuildEpisode(plan, config, episodes++, &report, &e2e));
      if (ready.back() == nullptr) return report;
      continue;
    }
    std::unique_ptr<Episode> ep = std::move(ready.front());
    ready.pop_front();
    RunEpisode(ep.get(), plan, config, &rng, stop, &report, &e2e, &busy_s,
               config.trace ? &trace : nullptr);
  }
  report.Detail("episodes", static_cast<double>(episodes));
  if (!config.trace) {
    e2e.queries_per_s =
        busy_s > 0 ? static_cast<double>(e2e.query_ms.count()) / busy_s : 0.0;
    report.EmitEndToEnd(e2e);
    return report;
  }

  trace.answers.Emit(&report);
  report.Layer("piazza.mutation_us_p50", trace.mutation_us.Median());
  report.Detail("traced_churn_events",
                static_cast<double>(trace.mutation_us.count()));
  return report;
}

}  // namespace perfbench
