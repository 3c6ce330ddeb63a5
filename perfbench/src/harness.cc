#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/simd.h"
#include "src/piazza/peer.h"
#include "src/piazza/views.h"
#include "src/storage/table.h"
#include "src/storage/table_version.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using revere::piazza::QualifiedName;
using revere::piazza::Updategram;
using revere::query::Atom;
using revere::query::ConjunctiveQuery;
using revere::query::QTerm;
using revere::storage::Row;
using revere::storage::Value;

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (const auto& [t, v] : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

namespace {

/// Nearest-rank quantile of `v` (sorted in place).
double QuantileOf(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  double rank = std::ceil(q * static_cast<double>(v->size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(index, v->size() - 1)];
}

constexpr size_t kMinWindowSamples = 200;

}  // namespace

double Samples::Quantile(double q) const {
  std::vector<double> v;
  v.reserve(values_.size());
  for (const auto& [t, x] : values_) v.push_back(x);
  return QuantileOf(&v, q);
}

size_t Samples::TailWindows() const {
  return std::max<size_t>(values_.size() / kMinWindowSamples, 1);
}

double Samples::TailPercentile() const {
  const double n = static_cast<double>(values_.size() / TailWindows());
  // A window holds fewer than 400 samples, so no higher percentile has
  // ten samples beyond it.
  for (double pct : {95.0, 90.0}) {
    if (n * (100.0 - pct) / 100.0 >= 10.0) return pct;
  }
  return 50.0;
}

double Samples::Windowed(double q) const {
  if (values_.empty()) return 0.0;
  auto ordered = values_;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t windows = TailWindows();
  std::vector<double> values;
  for (size_t w = 0; w < windows; ++w) {
    size_t begin = ordered.size() * w / windows;
    size_t end = ordered.size() * (w + 1) / windows;
    std::vector<double> window;
    for (size_t i = begin; i < end; ++i) window.push_back(ordered[i].second);
    values.push_back(QuantileOf(&window, q));
  }
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 10;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"query_p50_ms", "ms"},
      {"query_tail_ms", "ms"},    {"queries_per_s", "1/s"},
      {"update_p50_ms", "ms"},    {"update_tail_ms", "ms"},
      {"recall", "ratio"},        {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_tail", "us"},
      {"serve.service_us_p50", "us"},
      {"serve.shed_frac", "ratio"},
      {"serve.generator_lag_us_tail", "us"},
      {"piazza.reformulate_us_p50", "us"},
      {"piazza.plan_cache_hit_rate", "ratio"},
      {"piazza.rewritings_per_query", "count"},
      {"piazza.contacts_per_query", "count"},
      {"piazza.retries_per_query", "count"},
      {"piazza.mutation_us_p50", "us"},
      {"route.nodes_expanded_per_query", "count"},
      {"route.useful_frac", "ratio"},
      {"route.pruned_cost_per_query", "count"},
      {"route.pruned_redundant_per_query", "count"},
      {"storage.pin_us_p50", "us"},
      {"storage.index_builds_per_query", "count"},
      {"storage.index_build_us_per_query", "us"},
      {"storage.columnar_builds_per_query", "count"},
      {"storage.columnar_build_us_per_query", "us"},
      {"storage.apply_us_p50", "us"},
      {"storage.versions_published_per_s", "1/s"},
      {"query.eval_us_p50", "us"},
      {"query.join_us_p50", "us"},
      {"query.boundary_us_p50", "us"},
      {"query.rows_out_per_query", "count"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

namespace {

/// Peak resident set size of this process, MB.
double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Fail(const std::string& why) {
  correct_ = false;
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(why);
}

void Report::Detail(const std::string& key, double value) {
  details_[key] = JsonNumber(value);
}

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::EmitEndToEnd(const EndToEnd& e) {
  end_to_end_["setup_s"] = e.setup_s.Median();
  end_to_end_["query_p50_ms"] = e.query_ms.P50();
  end_to_end_["query_tail_ms"] = e.query_ms.Tail();
  end_to_end_["queries_per_s"] = e.queries_per_s;
  end_to_end_["update_p50_ms"] = e.update_ms.P50();
  end_to_end_["update_tail_ms"] = e.update_ms.Tail();
  end_to_end_["recall"] =
      e.recall_expected > 0 ? e.recall_rows / e.recall_expected : 0.0;
  Detail("setup_samples", static_cast<double>(e.setup_s.count()));
  Detail("query_samples", static_cast<double>(e.query_ms.count()));
  Detail("query_tail_percentile", e.query_ms.TailPercentile());
  Detail("query_tail_windows", static_cast<double>(e.query_ms.TailWindows()));
  Detail("update_samples", static_cast<double>(e.update_ms.count()));
  Detail("update_tail_percentile", e.update_ms.TailPercentile());
  Detail("update_tail_windows", static_cast<double>(e.update_ms.TailWindows()));
  Detail("recall_expected_rows", e.recall_expected);
}

void Report::SetEndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Report::Print(const RunConfig& config,
                   const std::string& workload) const {
  std::string detail = "{\"workload\": " + JsonString(workload) +
                       ", \"seed\": " + JsonNumber(config.seed) +
                       ", \"seconds\": " + JsonNumber(config.seconds) +
                       ", \"trace\": " + (config.trace ? "1" : "0") +
                       ", \"machine\": {\"nproc\": " +
                       JsonNumber(std::thread::hardware_concurrency()) +
                       ", \"simd\": " +
                       JsonString(revere::simd::BackendName()) +
                       ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                       "}, \"failed_frac\": " +
                       JsonNumber(attempted_ > 0
                                      ? static_cast<double>(failed_) /
                                            static_cast<double>(attempted_)
                                      : 0.0);
  for (const auto& [key, value] : details_) {
    detail += ", " + JsonString(key) + ": " + value;
  }
  detail += ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(errors_[i]);
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string metrics;
  auto add = [&metrics](const MetricSpec& spec, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  };
  if (config.trace) {
    for (const auto& spec : LayerSpecs()) {
      auto it = layers_.find(spec.name);
      add(spec, it == layers_.end() ? 0.0 : it->second);
    }
  } else {
    for (const auto& spec : EndToEndSpecs()) {
      if (std::string(spec.name) == "peak_rss_mb") {
        add(spec, PeakRssMb());
        continue;
      }
      auto it = end_to_end_.find(spec.name);
      add(spec, it == end_to_end_.end() ? 0.0 : it->second);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

ConjunctiveQuery TitleSelfJoin(const revere::datagen::PdmsGenReport& report,
                               size_t i) {
  std::string rel =
      QualifiedName(report.peer_names[i], report.relation_names[i]);
  Atom first{rel, {QTerm::Var("X"), QTerm::Var("T"), QTerm::Var("A")}};
  Atom second{rel, {QTerm::Var("Y"), QTerm::Var("T"), QTerm::Var("B")}};
  return ConjunctiveQuery("samet" + std::to_string(i),
                          {QTerm::Var("X"), QTerm::Var("Y")}, {first, second});
}

ConjunctiveQuery TitleSelfJoinMarker(
    const revere::datagen::PdmsGenReport& report, size_t i) {
  ConjunctiveQuery join = TitleSelfJoin(report, i);
  return ConjunctiveQuery("marker" + std::to_string(i),
                          {QTerm::Const(Value("hit"))}, join.body());
}

revere::storage::Table* AddCanary(revere::piazza::PdmsNetwork* net,
                                  const revere::storage::Table& like) {
  auto canary = net->mutable_storage()->CreateTable(
      revere::storage::TableSchema(kCanary, like.schema().columns()));
  if (!canary.ok() ||
      !canary.value()->InsertAll(like.Snapshot()->CopyRows()).ok()) {
    return nullptr;
  }
  return canary.value();
}

Updategram ChurnGram(const std::string& relation, uint64_t round) {
  auto row = [](uint64_t r, int j) {
    std::string id = std::to_string(r);
    id.insert(0, 1, 'w');
    id.append(1, '_').append(std::to_string(j));
    return Row{Value(id), Value("Churn Title"), Value("writer")};
  };
  Updategram u;
  u.relation = relation;
  for (int j = 0; j < 3; ++j) {
    u.inserts.push_back(row(round, j));
    if (round > 0) u.deletes.push_back(row(round - 1, j));
  }
  return u;
}

PacedWriter::PacedWriter(revere::storage::Catalog* storage,
                         std::vector<std::string> relations,
                         double per_second)
    : storage_(storage),
      relations_(std::move(relations)),
      period_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / per_second))),
      thread_(&PacedWriter::Run, this) {}

void PacedWriter::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void PacedWriter::Run() {
  std::vector<uint64_t> rounds(relations_.size(), 0);
  auto due = Clock::now();
  for (size_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    due += period_;
    std::this_thread::sleep_until(due);
    const size_t r = i % relations_.size();
    auto gram = ChurnGram(relations_[r], rounds[r]++);
    ++attempted_;
    auto t0 = Clock::now();
    auto status = revere::piazza::ApplyToBase(storage_, gram);
    auto t1 = Clock::now();
    if (!status.ok()) {
      errors_.push_back("updategram: " + status.ToString());
      continue;
    }
    apply_ms_.Add(Millis(t0, t1));
  }
}

}  // namespace perfbench
