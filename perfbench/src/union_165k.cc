// union_165k: ROADMAP's P3 union. A 12-peer kRandom universe, 400
// rows per peer, datagen seed 2003: the per-peer title self-join union
// returns 165,548 rows through query::EvaluateUnion on the columnar
// engine, no pool, one closed-loop client. Tables never change, so
// columnar snapshots are built during set-up; serve, route and
// reformulation do nothing. The output boundary (hash, dedup, decode)
// dominates; the constant-head twin (EXPERIMENTS.md §P4) isolates the
// join in the traced run.
//
// --seed rotates the order of the union's members (the universe stays
// the one P3 names); every answer must be byte-identical to a
// slots-engine reference computed in set-up for the same order (an
// order-sensitive digest on every answer, a row-by-row compare on a
// sample).
//
// The tables the union reads never change, so update_* time an
// insert+delete updategram (piazza::ApplyToBase) on a relation of the
// same size that no query reads, applied once after each union.
//
// This workload is run by hand (--workload union_165k); BENCHMARK.json
// leaves it out. Its working set lives in the last-level cache that a
// shared host splits with other tenants, and on a 4-vCPU VM its run
// medians moved between 15 and 28 ms with their load: ten-run spreads
// of 0.28-0.33, over any bound the benchmark can set. The same join
// split is traced on reads_under_writes, whose working set fits in L2.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/hash.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/evaluate.h"
#include "src/storage/table.h"
#include "src/storage/table_version.h"

namespace perfbench {
namespace {

using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::ApplyToBase;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::query::ConjunctiveQuery;
using revere::query::EvalEngine;
using revere::query::EvalOptions;
using revere::query::EvaluateUnion;
using revere::query::QTerm;
using revere::storage::Row;
using revere::storage::Table;

constexpr int kSetups = 7;
/// Every answer's digest is checked; every kFullCheckEvery-th answer is
/// also compared row by row (a full compare streams the 165k-row
/// reference through the caches the next union would use).
constexpr size_t kFullCheckEvery = 64;

/// Order-sensitive 64-bit digest of `rows`: a byte-identity check
/// against the reference's digest that reads only the fresh answer.
uint64_t Digest(const std::vector<Row>& rows) {
  uint64_t digest = rows.size();
  for (const Row& row : rows) {
    digest = revere::HashStep(digest, revere::storage::HashRow(row));
  }
  return digest;
}

struct State {
  PdmsNetwork net;
  PdmsGenReport report;
  std::vector<ConjunctiveQuery> joins;
  std::vector<ConjunctiveQuery> markers;
  std::vector<const Table*> tables;
  std::vector<Row> reference;
  uint64_t reference_digest = 0;
  size_t checks = 0;
  Table* canary = nullptr;
  uint64_t canary_round = 0;
};

EvalOptions Columnar() {
  EvalOptions options;
  options.engine = EvalEngine::kColumnar;
  return options;
}

std::unique_ptr<State> SetUp(const RunConfig& config, Report* report) {
  auto s = std::make_unique<State>();
  PdmsGenOptions options;
  options.topology = Topology::kRandom;
  options.peers = config.tiny ? 4 : 12;
  options.rows_per_peer = config.tiny ? 40 : 400;
  options.seed = 2003;
  auto built = BuildUniversityPdms(&s->net, options);
  if (!built.ok()) {
    report->Fail("build: " + built.status().ToString());
    return nullptr;
  }
  s->report = built.value();
  const size_t n = s->report.peer_names.size();
  for (size_t k = 0; k < n; ++k) {
    size_t i = (k + config.seed) % n;
    s->joins.push_back(TitleSelfJoin(s->report, i));
    s->markers.push_back(TitleSelfJoinMarker(s->report, i));
    std::string rel =
        QualifiedName(s->report.peer_names[i], s->report.relation_names[i]);
    s->tables.push_back(s->net.storage().GetTable(rel).value());
  }
  EvalOptions slots;
  slots.engine = EvalEngine::kSlots;
  auto reference = EvaluateUnion(s->net.storage(), s->joins, slots);
  if (!reference.ok()) {
    report->Fail("reference: " + reference.status().ToString());
    return nullptr;
  }
  s->reference = std::move(reference).value();
  s->reference_digest = Digest(s->reference);

  s->canary = AddCanary(&s->net, *s->tables[0]);
  if (s->canary == nullptr) {
    report->Fail("canary relation set-up failed");
    return nullptr;
  }

  // Warm: columnar snapshots for every table, then one full union.
  for (const Table* t : s->tables) t->Snapshot()->EnsureColumnar();
  if (!EvaluateUnion(s->net.storage(), s->joins, Columnar()).ok()) {
    report->Fail("warm-up union failed");
    return nullptr;
  }
  return s;
}

/// One canary updategram; returns its latency in ms, or < 0 on error.
double ApplyCanary(State* s, Report* report) {
  auto gram = ChurnGram(kCanary, s->canary_round++);
  report->Attempt();
  auto t0 = Clock::now();
  auto status = ApplyToBase(s->net.mutable_storage(), gram);
  auto t1 = Clock::now();
  if (!status.ok()) {
    report->Fail("canary updategram: " + status.ToString());
    return -1.0;
  }
  return Millis(t0, t1);
}

void CheckRows(State* s, std::vector<Row>* rows, const RunConfig& config,
               bool* corrupted, Report* report, EndToEnd* e2e) {
  if (config.corrupt && !*corrupted && !rows->empty()) {
    (*rows)[0][0] = revere::storage::Value("corrupted");
    *corrupted = true;
  }
  const bool full = s->checks++ % kFullCheckEvery == 0;
  if (Digest(*rows) != s->reference_digest ||
      (full && *rows != s->reference)) {
    report->Fail("union rows differ from the slots reference (" +
                 std::to_string(rows->size()) + " vs " +
                 std::to_string(s->reference.size()) + " rows)");
  }
  e2e->recall_rows += static_cast<double>(rows->size());
  e2e->recall_expected += static_cast<double>(s->reference.size());
}

/// Closed loop: union, check, canary updategram — until `seconds` pass.
void RunUntraced(State* s, const RunConfig& config, double seconds,
                 Report* report, EndToEnd* e2e) {
  double busy_s = 0.0;
  bool corrupted = false;
  const auto stop = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < stop) {
    report->Attempt();
    auto t0 = Clock::now();
    auto result = EvaluateUnion(s->net.storage(), s->joins, Columnar());
    auto t1 = Clock::now();
    if (!result.ok()) {
      report->Fail("union: " + result.status().ToString());
      continue;
    }
    std::vector<Row> rows = std::move(result).value();
    e2e->query_ms.Add(Millis(t0, t1));
    busy_s += Seconds(t0, t1);
    CheckRows(s, &rows, config, &corrupted, report, e2e);
    double update_ms = ApplyCanary(s, report);
    if (update_ms >= 0) e2e->update_ms.Add(update_ms);
  }
  e2e->queries_per_s =
      busy_s > 0 ? static_cast<double>(e2e->query_ms.count()) / busy_s : 0.0;
}

/// The same stream, each union run twice back to back: once untraced
/// (the baseline for the trace's overhead), once through the UnionTrace
/// decomposition, plus the constant-head twin for the join share.
void RunTraced(State* s, const RunConfig& config, double seconds,
               Report* report) {
  UnionTrace trace;
  Samples apply_us;
  const uint64_t versions_before = s->canary->generation();
  bool corrupted = false;
  EndToEnd unused;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(seconds);
  while (Clock::now() < stop) {
    report->Attempt(2);
    // Each answer is checked and freed before the next union runs, as
    // in the untraced loop, so every union allocates from warm memory.
    {
      auto u0 = Clock::now();
      auto plain = EvaluateUnion(s->net.storage(), s->joins, Columnar());
      auto u1 = Clock::now();
      if (!plain.ok()) {
        report->Fail("union: " + plain.status().ToString());
        continue;
      }
      std::vector<Row> rows = std::move(plain).value();
      CheckRows(s, &rows, config, &corrupted, report, &unused);
      trace.Untraced(Micros(u0, u1));
    }
    auto result = trace.Evaluate(s->net.storage(), s->tables, s->joins,
                                 Columnar(), std::nullopt, 0.0, &s->markers);
    if (!result.ok()) {
      report->Fail("traced union: " + result.status().ToString());
      continue;
    }
    {
      std::vector<Row> rows = std::move(result).value();
      CheckRows(s, &rows, config, &corrupted, report, &unused);
    }
    double update_ms = ApplyCanary(s, report);
    if (update_ms >= 0) apply_us.Add(update_ms * 1000.0);
  }
  const double wall_s = Seconds(start, Clock::now());
  if (trace.count() == 0) {
    report->Fail("no traced union completed");
    return;
  }
  trace.Emit(report);
  report->Layer("storage.apply_us_p50", apply_us.Median());
  report->Layer("storage.versions_published_per_s",
                static_cast<double>(s->canary->generation() -
                                    versions_before) /
                    wall_s);
}

}  // namespace

Report RunUnion165k(const RunConfig& config) {
  Report report;
  EndToEnd e2e;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    auto t0 = Clock::now();
    state = SetUp(config, &report);
    if (state == nullptr) return report;
    e2e.setup_s.Add(Seconds(t0, Clock::now()));
  }
  report.Detail("union_rows", static_cast<double>(state->reference.size()));
  if (!config.trace) {
    RunUntraced(state.get(), config, config.seconds, &report, &e2e);
    report.EmitEndToEnd(e2e);
    return report;
  }
  RunTraced(state.get(), config, config.seconds, &report);
  return report;
}

}  // namespace perfbench
