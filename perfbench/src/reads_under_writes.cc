// reads_under_writes: C4 under load at short-query scale. A 4-peer
// kRandom universe, 40 rows per peer, datagen seed 2003. Two
// closed-loop readers run the title-self-join union, each query under
// its own storage::SnapshotSet: one on the slots engine with on-demand
// indexes, one on the columnar engine. One writer applies insert+delete
// updategrams through piazza::ApplyToBase at a paced 1000/s,
// round-robin over the relations, so nearly every query pins fresh
// versions whose indexes or columnar snapshot must be rebuilt. Every
// 16th answer is checked against a quiesced slots-engine re-evaluation
// over the same pinned SnapshotSet. The traced run also evaluates the
// union's constant-head twin over the same pinned versions, splitting
// evaluation into join and output boundary (EXPERIMENTS.md §P4).
//
// The universe stays fixed, because the union's cost depends on how
// many titles repeat in it; --seed rotates the order of the union's
// members and of the writer's relations.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/query/evaluate.h"
#include "src/storage/table.h"
#include "src/storage/table_version.h"

namespace perfbench {
namespace {

using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::Topology;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::query::ConjunctiveQuery;
using revere::query::EvalEngine;
using revere::query::EvalOptions;
using revere::query::EvaluateUnion;
using revere::storage::Row;
using revere::storage::SnapshotSet;
using revere::storage::Table;

constexpr int kSetups = 101;
constexpr uint64_t kUniverseSeed = 2003;
constexpr double kWritesPerSecond = 1000.0;
constexpr size_t kCheckEvery = 16;
/// The column the join's second atom probes (title), i.e. the index the
/// slots engine builds on demand for every new version.
constexpr size_t kJoinColumn = 1;

struct State {
  PdmsNetwork net;
  std::vector<ConjunctiveQuery> joins;
  std::vector<ConjunctiveQuery> markers;  // constant-head twins of `joins`
  std::vector<std::string> relations;
  std::vector<const Table*> tables;
};

std::unique_ptr<State> SetUp(const RunConfig& config, Report* report) {
  auto s = std::make_unique<State>();
  PdmsGenOptions options;
  options.topology = Topology::kRandom;
  options.peers = config.tiny ? 3 : 4;
  options.rows_per_peer = 40;
  options.seed = kUniverseSeed;
  auto built = BuildUniversityPdms(&s->net, options);
  if (!built.ok()) {
    report->Fail("build: " + built.status().ToString());
    return nullptr;
  }
  const auto& gen = built.value();
  const size_t n = gen.peer_names.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (k + config.seed) % n;
    s->joins.push_back(TitleSelfJoin(gen, i));
    s->markers.push_back(TitleSelfJoinMarker(gen, i));
    s->relations.push_back(
        QualifiedName(gen.peer_names[i], gen.relation_names[i]));
    s->tables.push_back(s->net.storage().GetTable(s->relations.back()).value());
  }
  for (EvalEngine engine : {EvalEngine::kSlots, EvalEngine::kColumnar}) {
    EvalOptions options;
    options.engine = engine;
    if (!EvaluateUnion(s->net.storage(), s->joins, options).ok()) {
      report->Fail("warm-up union failed");
      return nullptr;
    }
  }
  return s;
}

/// What one reader thread measured.
struct ReaderResult {
  Samples query_ms;
  double busy_s = 0.0;
  uint64_t attempted = 0;
  std::vector<std::string> errors;
  double checked_rows = 0.0;
  double reference_rows = 0.0;
  UnionTrace trace;  // traced run only
};

/// A traced run alternates untraced and traced blocks of this length,
/// so the untraced baseline and the traced queries see the same writer
/// and the same machine.
constexpr double kTraceBlockS = 0.25;

void Reader(State* s, EvalEngine engine, bool traced, bool corrupt,
            const std::atomic<bool>* stop, ReaderResult* out) {
  bool corrupted = false;
  const auto start = Clock::now();
  for (uint64_t n = 0; !stop->load(std::memory_order_relaxed); ++n) {
    ++out->attempted;
    const bool decompose =
        traced &&
        static_cast<int64_t>(Seconds(start, Clock::now()) / kTraceBlockS) % 2;
    SnapshotSet set;
    EvalOptions options;
    options.engine = engine;
    options.snapshots = &set;
    auto t0 = Clock::now();
    auto result =
        decompose
            ? out->trace.Evaluate(s->net.storage(), s->tables, s->joins,
                                  options, kJoinColumn, 0.0, &s->markers)
            : EvaluateUnion(s->net.storage(), s->joins, options);
    auto t1 = Clock::now();
    if (!result.ok()) {
      out->errors.push_back("union: " + result.status().ToString());
      continue;
    }
    std::vector<Row> rows = std::move(result).value();
    if (!decompose) {
      out->query_ms.Add(Millis(t0, t1));
      out->busy_s += Seconds(t0, t1);
      out->trace.Untraced(Micros(t0, t1));
    }
    // A decomposed query pinned its own set; its answer is checked on
    // the untraced queries only.
    if (decompose || n % kCheckEvery != 0) continue;
    EvalOptions quiesced;
    quiesced.engine = EvalEngine::kSlots;
    quiesced.snapshots = &set;
    auto reference = EvaluateUnion(s->net.storage(), s->joins, quiesced);
    if (corrupt && !corrupted && !rows.empty()) {
      rows[0][0] = revere::storage::Value("corrupted");
      corrupted = true;
    }
    if (!reference.ok() || rows != reference.value()) {
      out->errors.push_back("answer differs from the quiesced re-evaluation");
      continue;
    }
    out->checked_rows += static_cast<double>(rows.size());
    out->reference_rows += static_cast<double>(reference.value().size());
  }
}

struct WindowResult {
  ReaderResult readers[2];  // [0] slots, [1] columnar
  Samples apply_ms;
  uint64_t updates_attempted = 0;
  std::vector<std::string> update_errors;
  double wall_s = 0.0;
  uint64_t versions = 0;
};

uint64_t TotalVersions(const State& s) {
  uint64_t v = 0;
  for (const Table* t : s.tables) v += t->generation();
  return v;
}

WindowResult RunWindow(State* s, const RunConfig& config, double seconds) {
  WindowResult window;
  std::atomic<bool> stop{false};
  const uint64_t versions_before = TotalVersions(*s);
  auto start = Clock::now();
  {
    PacedWriter writer(s->net.mutable_storage(), s->relations,
                       kWritesPerSecond);
    std::jthread slots(Reader, s, EvalEngine::kSlots, config.trace,
                       config.corrupt, &stop, &window.readers[0]);
    std::jthread columnar(Reader, s, EvalEngine::kColumnar, config.trace,
                          config.corrupt, &stop, &window.readers[1]);
    // Raising `stop` ends the readers; on every path out of this scope
    // that happens before the jthreads join them.
    struct StopOnExit {
      std::atomic<bool>* stop;
      ~StopOnExit() { stop->store(true); }
    } stop_on_exit{&stop};
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    slots.join();
    columnar.join();
    writer.Stop();
    window.apply_ms = writer.apply_ms();
    window.updates_attempted = writer.attempted();
    window.update_errors = writer.errors();
  }
  window.wall_s = Seconds(start, Clock::now());
  window.versions = TotalVersions(*s) - versions_before;
  return window;
}

/// Folds a window's counts and errors into the report.
void Account(const WindowResult& window, Report* report) {
  for (const auto& r : window.readers) {
    report->Attempt(r.attempted);
    for (const auto& e : r.errors) report->Fail(e);
  }
  report->Attempt(window.updates_attempted);
  for (const auto& e : window.update_errors) report->Fail(e);
}

}  // namespace

Report RunReadsUnderWrites(const RunConfig& config) {
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

  WindowResult window = RunWindow(state.get(), config, config.seconds);
  Account(window, &report);
  if (!config.trace) {
    for (const auto& r : window.readers) {
      e2e.query_ms.Append(r.query_ms);
      if (r.busy_s > 0) {
        e2e.queries_per_s += static_cast<double>(r.query_ms.count()) / r.busy_s;
      }
      e2e.recall_rows += r.checked_rows;
      e2e.recall_expected += r.reference_rows;
    }
    e2e.update_ms = window.apply_ms;
    const Samples& slots = window.readers[0].query_ms;
    const Samples& columnar = window.readers[1].query_ms;
    report.Detail("slots_query_p50_ms", slots.P50());
    report.Detail("columnar_query_p50_ms", columnar.P50());
    report.Detail("slots_query_tail_ms", slots.Tail());
    report.Detail("columnar_query_tail_ms", columnar.Tail());
    report.Detail("slots_query_samples", static_cast<double>(slots.count()));
    report.Detail("columnar_query_samples",
                  static_cast<double>(columnar.count()));
    report.Detail("updategrams_per_s",
                  static_cast<double>(window.apply_ms.count()) /
                      window.wall_s);
    report.EmitEndToEnd(e2e);
    // Each engine's reader weighs the same in the query latencies. In
    // the pooled samples the faster reader has the larger share, so
    // the pooled median and tail would move with the readers' relative
    // speed, which the host sets, not the engines.
    report.SetEndToEnd("query_p50_ms", (slots.P50() + columnar.P50()) / 2);
    report.SetEndToEnd("query_tail_ms", (slots.Tail() + columnar.Tail()) / 2);
    return report;
  }

  UnionTrace trace = window.readers[0].trace;
  trace.Append(window.readers[1].trace);
  trace.Emit(&report);
  report.Layer("storage.apply_us_p50", window.apply_ms.Median() * 1000.0);
  report.Layer("storage.versions_published_per_s",
               static_cast<double>(window.versions) / window.wall_s);
  report.Detail("traced_updategrams",
                static_cast<double>(window.apply_ms.count()));
  return report;
}

}  // namespace perfbench
