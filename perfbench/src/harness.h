// Shared plumbing for the REVERE benchmark driver: run configuration,
// sample sets with honest percentiles, the end-to-end and per-layer
// metric tables, and the one-line JSON result the driver prints last.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/datagen/topology.h"
#include "src/piazza/pdms.h"
#include "src/piazza/views.h"
#include "src/query/cq.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer replay instead of the end-to-end measurement.
  bool trace = false;
  /// Self-test scale: small inputs, same code paths.
  bool tiny = false;
  /// Self-test: corrupt one checked answer; the workload's answer
  /// checks must catch it.
  bool corrupt = false;
};

/// A set of measurements (latencies, sizes) with nearest-rank
/// quantiles. Each sample is stamped with the time it was added, so
/// tails can be taken per time window. Percentiles are only ever
/// reported together with the sample count they rest on.
class Samples {
 public:
  void Add(double v) { values_.push_back({Clock::now(), v}); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The end-to-end p50 and tail are taken per time window: the
  /// samples are cut, in time order, into windows of 200 to 399
  /// samples (one window when there are fewer than 400), each window
  /// contributes its value at the percentile, and the result is the
  /// mean of those values without their lowest and highest tenth. A
  /// host stall that hits a few windows moves none of the kept values.
  /// A host that runs at two speeds in turn moves the result in
  /// proportion to the time spent at each, where a quantile of the
  /// pooled samples would jump from one speed's value to the other's.
  double P50() const { return Windowed(0.5); }
  /// The tail: windowed as P50(), at the highest of the percentiles
  /// {95, 90} that has at least ten samples beyond it in a window (50
  /// when neither has), which is the 95th for a full window.
  double Tail() const { return Windowed(TailPercentile() / 100.0); }
  /// The percentile each window's tail value is taken at.
  double TailPercentile() const;
  /// Number of windows P50() and Tail() are taken over.
  size_t TailWindows() const;

 private:
  double Windowed(double q) const;

  std::vector<std::pair<Clock::time_point, double>> values_;
};

/// What every workload measures end to end (untraced runs only).
struct EndToEnd {
  Samples setup_s;    ///< One sample per full set-up in the run.
  Samples query_ms;   ///< Per-query latency.
  Samples update_ms;  ///< Per-update (updategram or churn event) latency.
  double queries_per_s = 0.0;
  /// Rows returned over rows expected by the workload's ground truth.
  double recall_rows = 0.0;
  double recall_expected = 0.0;
};

/// The result of one run: answer-check outcome, operation counts, and
/// the metrics and details to print.
class Report {
 public:
  /// Counts `n` attempted operations.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// A wrong answer or a failed check: counts as failed and fails the
  /// run.
  void Fail(const std::string& why);
  /// A failed operation that is not a wrong answer (shed, timed out).
  void FailOperation() { ++failed_; }

  void Detail(const std::string& key, double value);
  void Layer(const std::string& name, double value);

  void EmitEndToEnd(const EndToEnd& e2e);
  /// Replaces one value EmitEndToEnd set, for a workload that defines
  /// the metric over its streams rather than over the pooled samples.
  void SetEndToEnd(const std::string& name, double value);

  bool correct() const { return correct_; }
  /// Prints the detail line, then the result line (last on stdout).
  void Print(const RunConfig& config, const std::string& workload) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::string> details_;  // key -> JSON value
  std::map<std::string, double> layers_;
  std::map<std::string, double> end_to_end_;
};

/// Metric names and units, in BENCHMARK.json order: EndToEndSpecs for
/// an untraced run, LayerSpecs for a traced one. A run prints every
/// metric of its kind; layers a workload does not cross print 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& LayerSpecs();

// ---- Inputs shared by several workloads ------------------------------

/// All pairs of same-title courses at peer `i` (the P1/P3 join).
revere::query::ConjunctiveQuery TitleSelfJoin(
    const revere::datagen::PdmsGenReport& report, size_t i);

/// TitleSelfJoin with a constant head: identical candidate streams and
/// probes, near-free output boundary (EXPERIMENTS.md §P4).
revere::query::ConjunctiveQuery TitleSelfJoinMarker(
    const revere::datagen::PdmsGenReport& report, size_t i);

/// Name of the relation that workloads whose own relations never change
/// apply their update stream to: no mapping or query reads it.
inline constexpr char kCanary[] = "perfbench:canary";

/// Creates the canary relation in `net`'s storage, holding a copy of
/// `like`'s rows; nullptr on failure.
revere::storage::Table* AddCanary(revere::piazza::PdmsNetwork* net,
                                  const revere::storage::Table& like);

/// Updategram `round` for `relation`: inserts three fresh rows and
/// deletes the previous round's three, so tables stay bounded.
revere::piazza::Updategram ChurnGram(const std::string& relation,
                                     uint64_t round);

/// A writer thread of its own: from construction until Stop() it
/// applies ChurnGram updategrams through piazza::ApplyToBase at a paced
/// rate, round-robin over `relations`, and times each one.
class PacedWriter {
 public:
  PacedWriter(revere::storage::Catalog* storage,
              std::vector<std::string> relations, double per_second);
  ~PacedWriter() { Stop(); }
  PacedWriter(const PacedWriter&) = delete;
  PacedWriter& operator=(const PacedWriter&) = delete;

  /// Stops the thread and waits for it; idempotent.
  void Stop();

  // Valid after Stop().
  const Samples& apply_ms() const { return apply_ms_; }
  uint64_t attempted() const { return attempted_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Run();

  revere::storage::Catalog* storage_;
  std::vector<std::string> relations_;
  Clock::duration period_;
  std::atomic<bool> stop_{false};
  Samples apply_ms_;
  uint64_t attempted_ = 0;
  std::vector<std::string> errors_;
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
