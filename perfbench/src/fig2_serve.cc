// fig2_serve: the Figure-2 six-university PDMS (datagen seed 2003, 200
// rows per peer) behind serve::RevereServer (2 workers, no faults). The
// mix is Zipf(0.9) hot per-peer point lookups (plan-cache hits), ~20%
// never-repeated lookups (plan-cache misses), ~10% transitive "all
// courses" queries from a random peer (Figure 2's own query: 6
// rewritings, 1.2k rows), and 25% of requests on the batch lane, drawn
// from a stream seeded by --seed, as is the hot set.
//
// Load: one thread keeps a fixed number of requests in flight (a
// closed loop). It blocks at most kPollWait on one request, then takes
// every request that has completed and refills its slot at once; the
// new request is due then, and its latency runs from then to the end
// of its service as the server reports it, so the loop's lag in
// refilling a slot counts in it, and that lag is reported. Each
// request carries a deadline budget: the server sheds a request whose
// estimated queue wait alone exceeds it, and a shed request counts as
// failed.
//
// An open loop (Poisson arrivals at 2000/s, half of what two workers
// sustain here) left the workers idle between arrivals. On a shared VM
// the time to wake an idle worker then set the median latency, and it
// moved 0.10-0.74 ms between five runs of the same code. The loop
// refills any completed slot, not only the oldest, so a slow sweep does
// not hold back the refills behind it and the workers always have
// queued work; it blocks between looks rather than spinning, because a
// spinning loop takes a core the workers need when the host is busy.
//
// The served answers never change, so update_* time an insert+delete
// updategram (piazza::ApplyToBase) on a relation no query reads,
// applied at a paced rate by a writer thread of its own.

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/piazza/pdms.h"
#include "src/piazza/peer.h"
#include "src/serve/server.h"
#include "src/storage/table.h"

namespace perfbench {
namespace {

using revere::Rng;
using revere::datagen::AllCoursesQuery;
using revere::datagen::BuildUniversityPdms;
using revere::datagen::PdmsGenOptions;
using revere::datagen::PdmsGenReport;
using revere::datagen::Topology;
using revere::piazza::PdmsNetwork;
using revere::piazza::QualifiedName;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::QTerm;
using revere::serve::Lane;
using revere::serve::RevereServer;
using revere::serve::ServeOptions;
using revere::serve::ServeRequest;
using revere::serve::ServeResult;
using revere::serve::ServerStats;
using revere::storage::Row;
using revere::storage::Table;
using revere::storage::Value;

constexpr int kSetups = 21;
constexpr uint64_t kUniverseSeed = 2003;
/// Requests in flight: enough that both workers always find a queued
/// request, so no request waits for an idle worker to wake.
constexpr size_t kInFlight = 8;
/// Every request's deadline budget. The server sheds at admission when
/// its queue-wait estimate exceeds it (about 2 ms at this load).
constexpr double kDeadlineMs = 250.0;
/// Longest the load loop blocks on one request before it looks at the
/// others. Far below a request's service time, so the queue never runs
/// dry while the loop waits.
constexpr auto kPollWait = std::chrono::microseconds(50);
constexpr size_t kHotPerPeer = 8;
constexpr double kZipfTheta = 0.9;
constexpr double kSweepShare = 0.10;
constexpr double kOneOffShare = 0.20;
constexpr double kBatchShare = 0.25;
constexpr double kCanaryWritesPerSecond = 100.0;
constexpr size_t kCheckSweepEvery = 16;
constexpr size_t kCheckOneOffEvery = 64;

enum class Kind : uint8_t { kHot, kOneOff, kSweep };

/// One request of the stream.
struct Request {
  Kind kind;
  uint32_t index;  // hot rank, sweep peer, or one-off serial
  Lane lane;
  /// One-off lookups: the peer whose vocabulary asks, and a real course
  /// id. Each gets a query name of its own, so its plan is never in the
  /// plan cache, and its answer has rows.
  uint32_t origin;
  std::string id;
};

ConjunctiveQuery Lookup(const PdmsGenReport& gen, size_t peer,
                        const std::string& id, const std::string& name) {
  std::string rel =
      QualifiedName(gen.peer_names[peer], gen.relation_names[peer]);
  return ConjunctiveQuery(
      name, {QTerm::Var("T"), QTerm::Var("P")},
      {Atom{rel, {QTerm::Const(Value(id)), QTerm::Var("T"), QTerm::Var("P")}}});
}

struct State {
  PdmsNetwork net;
  PdmsGenReport gen;
  size_t rows_per_peer = 0;
  std::vector<ConjunctiveQuery> hot;  // by Zipf rank
  std::vector<std::vector<Row>> hot_answers;
  std::vector<ConjunctiveQuery> sweeps;  // all courses, one per peer
  std::vector<std::vector<Row>> sweep_answers;
  Table* canary = nullptr;

  /// A random real course id.
  std::string RandomId(Rng* rng) const {
    size_t owner = rng->Index(gen.peer_names.size());
    return gen.peer_names[owner] + "/" +
           std::to_string(rng->Index(rows_per_peer));
  }

  ConjunctiveQuery QueryOf(const Request& r) const {
    switch (r.kind) {
      case Kind::kHot:
        return hot[r.index];
      case Kind::kSweep:
        return sweeps[r.index];
      default:
        return Lookup(gen, r.origin, r.id, "oneoff" + std::to_string(r.index));
    }
  }
};

/// The request stream: the same seed gives the same sequence.
class Mix {
 public:
  Mix(const State& s, uint64_t seed) : s_(s), rng_(seed ^ 0xa11ce5ULL) {}

  Request Next() {
    const size_t peers = s_.gen.peer_names.size();
    Request r{Kind::kHot, 0, Lane::kInteractive, 0, {}};
    double u = rng_.UniformDouble();
    if (u < kSweepShare) {
      r.kind = Kind::kSweep;
      r.index = static_cast<uint32_t>(rng_.Index(peers));
    } else if (u < kSweepShare + kOneOffShare) {
      r.kind = Kind::kOneOff;
      r.index = one_offs_++;
      r.origin = static_cast<uint32_t>(rng_.Index(peers));
      r.id = s_.RandomId(&rng_);
    } else {
      r.index = static_cast<uint32_t>(rng_.Zipf(s_.hot.size(), kZipfTheta));
    }
    if (rng_.Bernoulli(kBatchShare)) r.lane = Lane::kBatch;
    return r;
  }

 private:
  const State& s_;
  Rng rng_;
  uint32_t one_offs_ = 0;
};

/// Network, reference answers and a warm plan cache.
std::unique_ptr<State> SetUp(const RunConfig& config, Report* report) {
  auto s = std::make_unique<State>();
  PdmsGenOptions options;
  options.topology = Topology::kFigure2;
  options.rows_per_peer = config.tiny ? 20 : 200;
  options.seed = kUniverseSeed;
  auto built = BuildUniversityPdms(&s->net, options);
  if (!built.ok()) {
    report->Fail("build: " + built.status().ToString());
    return nullptr;
  }
  s->gen = built.value();
  s->rows_per_peer = options.rows_per_peer;
  const size_t peers = s->gen.peer_names.size();
  Rng rng(config.seed);
  for (size_t k = 0; k < kHotPerPeer * peers; ++k) {
    s->hot.push_back(Lookup(s->gen, k % peers, s->RandomId(&rng), "q"));
  }
  for (size_t p = 0; p < peers; ++p) {
    s->sweeps.push_back(AllCoursesQuery(s->gen, p));
  }
  // Standalone answers, outside any timed window; they also warm the
  // plan cache with every hot plan.
  for (const auto* group : {&s->hot, &s->sweeps}) {
    auto* answers = group == &s->hot ? &s->hot_answers : &s->sweep_answers;
    for (const auto& q : *group) {
      auto rows = s->net.Answer(q);
      if (!rows.ok()) {
        report->Fail("reference answer: " + rows.status().ToString());
        return nullptr;
      }
      answers->push_back(std::move(rows).value());
    }
  }
  auto first = s->net.storage().GetTable(
      QualifiedName(s->gen.peer_names[0], s->gen.relation_names[0]));
  s->canary = first.ok() ? AddCanary(&s->net, *first.value()) : nullptr;
  if (s->canary == nullptr) {
    report->Fail("canary relation set-up failed");
    return nullptr;
  }
  return s;
}

/// A submitted request.
struct InFlight {
  Request request;
  double lag_us;  // submit time minus due time
  std::future<ServeResult> result;
};

/// What the load loop saw of the served answers.
struct Collected {
  Samples latency_ms, queue_wait_us, service_us;
  uint64_t attempted = 0, shed = 0, not_ok = 0, correct = 0, wrong = 0;
  double sweep_rows = 0, sweep_expected = 0;
  /// Sampled one-off answers, checked after the window.
  std::vector<std::pair<Request, std::vector<Row>>> deferred;
  Clock::time_point last_done;
  size_t sweeps = 0, one_offs = 0;
  bool corrupted = false;
};

/// Takes the result of a completed request and checks its answer.
void Collect(const State* s, bool corrupt, InFlight item, Collected* out) {
  const Request& req = item.request;
  ServeResult r = item.result.get();
  ++out->attempted;
  if (r.shed) {
    ++out->shed;
    return;
  }
  if (!r.status.ok() || !r.stats.completeness.complete()) {
    ++out->not_ok;
    return;
  }
  double latency_us = item.lag_us + r.queue_wait_us + r.service_us;
  out->latency_ms.Add(latency_us / 1000.0);
  out->queue_wait_us.Add(r.queue_wait_us);
  out->service_us.Add(r.service_us);
  if (corrupt && !out->corrupted && req.kind == Kind::kHot &&
      !r.rows.empty()) {
    r.rows[0][0] = Value("corrupted");
    out->corrupted = true;
  }
  bool right = true;
  switch (req.kind) {
    case Kind::kHot:
      right = r.rows == s->hot_answers[req.index];
      break;
    case Kind::kSweep:
      right = r.rows.size() == s->gen.total_rows &&
              (out->sweeps++ % kCheckSweepEvery != 0 ||
               r.rows == s->sweep_answers[req.index]);
      out->sweep_rows += static_cast<double>(r.rows.size());
      out->sweep_expected += static_cast<double>(s->gen.total_rows);
      break;
    default:
      if (r.rows.empty()) {
        right = false;
      } else if (out->one_offs++ % kCheckOneOffEvery == 0) {
        out->deferred.emplace_back(req, std::move(r.rows));
      }
      break;
  }
  right ? ++out->correct : ++out->wrong;
}

/// What one load run measured.
struct LoadResult {
  Collected collected;
  Samples lag_us, update_ms;
  ServerStats server;
  double window_s = 0.0;
  uint64_t versions = 0;  // canary versions published
  uint64_t updates_attempted = 0;
  std::vector<std::string> update_errors;
};

/// Drives a fresh server on `s->net` with kInFlight requests in flight
/// for `seconds`, while a writer thread updates the canary relation.
LoadResult RunLoad(State* s, const RunConfig& config, double seconds) {
  LoadResult out;
  ServeOptions options;
  options.workers = 2;
  options.default_deadline_ms = kDeadlineMs;
  const uint64_t versions_before = s->canary->generation();
  Mix mix(*s, config.seed);
  {
    RevereServer server(&s->net, options);
    PacedWriter writer(s->net.mutable_storage(), {kCanary},
                       kCanaryWritesPerSecond);
    auto submit = [&](Clock::time_point due) {
      Request r = mix.Next();
      ServeRequest request;
      request.query = s->QueryOf(r);
      request.lane = r.lane;
      double lag_us = Micros(due, Clock::now());
      out.lag_us.Add(lag_us);
      return InFlight{std::move(r), lag_us, server.Submit(std::move(request))};
    };
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::vector<std::optional<InFlight>> slots(kInFlight);
    for (auto& slot : slots) slot = submit(start);
    // Wait up to kPollWait on one open slot in turn, then take every
    // slot whose request has completed: it is refilled at once, until
    // the window closes, and the finished request's answer is checked
    // after the refill.
    for (size_t open = kInFlight, next = 0; open > 0;
         next = (next + 1) % kInFlight) {
      if (slots[next]) slots[next]->result.wait_for(kPollWait);
      for (auto& slot : slots) {
        if (!slot || slot->result.wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
          continue;
        }
        const auto done = Clock::now();
        out.collected.last_done = done;
        InFlight finished = std::move(*slot);
        slot.reset();
        --open;
        if (done < stop) {
          slot = submit(done);
          ++open;
        }
        Collect(s, config.corrupt, std::move(finished), &out.collected);
      }
    }
    server.Shutdown();
    writer.Stop();
    out.server = server.Snapshot();
    out.window_s = Seconds(start, out.collected.last_done);
    out.update_ms = writer.apply_ms();
    out.updates_attempted = writer.attempted();
    out.update_errors = writer.errors();
  }
  out.versions = s->canary->generation() - versions_before;
  return out;
}

/// Folds accounting and answer checks into the report; returns the
/// number of correct answers.
uint64_t Account(State* s, const LoadResult& r, Report* report) {
  const Collected& c = r.collected;
  report->Attempt(c.attempted + r.updates_attempted);
  for (uint64_t i = 0; i < c.shed + c.not_ok; ++i) report->FailOperation();
  for (const auto& e : r.update_errors) report->Fail(e);
  for (uint64_t i = 0; i < c.wrong; ++i) {
    report->Fail("served answer differs from the standalone answer");
  }
  for (const auto& [request, rows] : c.deferred) {
    auto standalone = s->net.Answer(s->QueryOf(request));
    if (!standalone.ok() || standalone.value() != rows) {
      report->Fail("one-off answer differs from the standalone answer");
    }
  }
  const ServerStats& st = r.server;
  if (st.submitted != st.admitted + st.shed_queue_full + st.shed_unmeetable ||
      st.admitted != st.completed + st.deadline_exceeded + st.failed ||
      st.submitted != c.attempted) {
    report->Fail("server accounting identities do not hold");
  }
  return c.correct;
}

/// Sequential replay of the same request stream on two fresh networks
/// identical to the served one (see trace.h).
void RunReplay(const RunConfig& config, double seconds, AnswerTrace* trace,
               Report* report) {
  auto plain = SetUp(config, report);
  auto mirror = SetUp(config, report);
  if (plain == nullptr || mirror == nullptr) return;
  const revere::piazza::NetworkCostModel cost;
  Mix mix(*plain, config.seed);
  const auto stop = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < stop) {
    trace->Answer(plain->net, cost, mirror->net, plain->QueryOf(mix.Next()),
                  {}, report);
  }
}

}  // namespace

Report RunFig2Serve(const RunConfig& config) {
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
  report.Detail("requests_in_flight", static_cast<double>(kInFlight));
  report.Detail("deadline_ms", kDeadlineMs);

  const double load_s = config.trace ? config.seconds / 2 : config.seconds;
  LoadResult load = RunLoad(state.get(), config, load_s);
  const uint64_t correct = Account(state.get(), load, &report);
  const Collected& c = load.collected;
  report.Detail("served_requests", static_cast<double>(c.attempted));
  report.Detail("shed", static_cast<double>(c.shed));
  report.Detail("not_ok", static_cast<double>(c.not_ok));
  report.Detail("generator_lag_us_p50", load.lag_us.Median());
  report.Detail("generator_lag_us_tail", load.lag_us.Tail());

  if (!config.trace) {
    e2e.query_ms = c.latency_ms;
    e2e.update_ms = load.update_ms;
    e2e.queries_per_s =
        load.window_s > 0 ? static_cast<double>(correct) / load.window_s : 0.0;
    e2e.recall_rows = c.sweep_rows;
    e2e.recall_expected = c.sweep_expected;
    report.EmitEndToEnd(e2e);
    return report;
  }

  report.Layer("serve.queue_wait_us_p50", c.queue_wait_us.Median());
  report.Layer("serve.queue_wait_us_tail", c.queue_wait_us.Tail());
  report.Layer("serve.service_us_p50", c.service_us.Median());
  report.Layer("serve.shed_frac",
               c.attempted > 0 ? static_cast<double>(c.shed) /
                                     static_cast<double>(c.attempted)
                               : 0.0);
  report.Layer("serve.generator_lag_us_tail", load.lag_us.Tail());
  report.Layer("storage.apply_us_p50", load.update_ms.Median() * 1000.0);
  report.Layer("storage.versions_published_per_s",
               static_cast<double>(load.versions) / load_s);

  AnswerTrace trace;
  RunReplay(config, config.seconds / 2, &trace, &report);
  trace.Emit(&report);
  return report;
}

}  // namespace perfbench
