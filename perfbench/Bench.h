//===- perfbench/Bench.h - Shared benchmark harness types -------*- C++ -*-===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two workloads (solve, overhead_1w) and the layer probes
/// share: run options, the in-memory span log of a traced run,
/// job accounting, sample statistics and the metric record the harness
/// prints. Every timing comes from atc::nowNanos() (steady_clock), the
/// clock the job server stamps its records with, so client-side and
/// server-side spans of one job line up.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/SchedulerPool.h"
#include "core/SchedulerStats.h"
#include "problems/ProblemRegistry.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one harness run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpanFile; ///< Where a traced run writes its spans.
  int Nproc = 1;        ///< CPUs this process may run on.
};

/// One timed interval around a call into the runtime. Spans of one job
/// share Job; Phase spans tile their parent exactly (the accounting
/// check sums them against the parent's duration).
struct Span {
  Span() = default;
  Span(std::string Name, std::uint64_t StartNs, std::uint64_t EndNs,
       std::int64_t Parent, std::uint64_t Job, bool Phase = false)
      : Name(std::move(Name)), StartNs(StartNs), EndNs(EndNs),
        Parent(Parent), Job(Job), Phase(Phase) {}

  std::string Name;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  std::int64_t Parent = -1; ///< Index of the parent span, -1 for a root.
  std::uint64_t Job = 0;
  bool Phase = false;
  bool Probe = false; ///< Recorded by a layer probe, not the workload.
  int Workers = 0;
  std::string Key; ///< Problem label ("fib-30", "tree3l-2", ...).
  bool HasStats = false;
  atc::SchedulerStats Stats;
};

/// The spans of a traced run, kept in memory and written out at the
/// end. Disabled (every call a no-op) in untraced runs. Thread-safe.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Appends \p S (marked Probe while a probe runs) and returns its
  /// index, or -1 when disabled.
  std::int64_t add(Span S);

  /// Marks spans added from now on as probe spans (or not).
  void setProbe(bool On) { ProbeMode.store(On); }

  /// Adds \p Ns to the time spent recording spans (the tracing
  /// overhead); callers time each recording block.
  void charge(std::uint64_t Ns) { CostNs.fetch_add(Ns); }
  std::uint64_t costNs() const { return CostNs.load(); }

  /// The spans; call only after every recording thread has finished.
  const std::vector<Span> &spans() const { return Spans; }

  /// Writes the spans as JSON to \p Path; false on an I/O error.
  bool writeJson(const std::string &Path, double GranularityNs) const;

private:
  bool Enabled;
  std::atomic<bool> ProbeMode{false};
  std::atomic<std::uint64_t> CostNs{0};
  mutable std::mutex Lock;
  std::vector<Span> Spans;
};

/// Job outcomes of a run. Mismatched, lost and failed jobs make the run
/// incorrect; every class counts as a failed job.
struct Accounting {
  std::uint64_t Attempted = 0;
  std::uint64_t Mismatched = 0; ///< Value differs from the oracle.
  std::uint64_t Lost = 0;       ///< Never reached a terminal state.
  std::uint64_t FailedState = 0;
  std::uint64_t Shed = 0; ///< Refused at admission or expired.
  std::vector<std::string> Errors;

  std::uint64_t failed() const {
    return Mismatched + Lost + FailedState + Shed;
  }
  bool correct() const { return Mismatched + Lost + FailedState == 0; }
  void mismatch(const std::string &Key, long long Got, long long Want);
};

/// One printed metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main().
struct Outcome {
  Accounting Jobs;
  double SetupS = 0;             ///< Median over the set-up repetitions.
  std::vector<Metric> EndToEnd;  ///< Everything but setup_s.
  /// Absolute throughput and latency, printed for information: on a host
  /// whose speed drifts they vary too much between runs to gate on.
  std::vector<Metric> Absolute;
  std::uint64_t MeasureStartNs = 0;
  std::uint64_t MeasureEndNs = 0;
  std::uint64_t TraceCostNs = 0; ///< Span recording during measurement.
};

/// How many times each workload repeats its set-up; setup_s is the
/// median.
constexpr int SetupRepeats = 3;

/// Quantile \p Q in [0, 1] of \p V with linear interpolation (the
/// "type 7" estimator); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);

/// Nodes visited by a run: real plus fake tasks.
inline double nodes(const atc::SchedulerStats &S) {
  return static_cast<double>(S.TasksCreated + S.FakeTasks);
}

/// Builds a registry runner or aborts with a message.
atc::ProblemRunner registryRunner(const std::string &Kind, int Size);

/// A runner over a seeded SyntheticTreeProblem tree (Trees.cpp).
atc::ProblemRunner treeRunner(const std::string &Preset, long long Nodes,
                              std::uint64_t TreeSeed, int SpinPerNode,
                              const std::string &Label);

// Workloads. Each runs its set-up SetupRepeats times, measures for
// Opts.Seconds, checks every job against its oracle and, in a traced
// run, records spans and runs the layer probes it does not cover
// itself.
Outcome runSolve(const Options &Opts, SpanLog &Log);
Outcome runOverhead(const Options &Opts, SpanLog &Log);

// Layer probes (Probes.cpp): fixed inputs, the same on every workload.
/// No-op dispatches at width 1 and full width, then fib:1 jobs at full
/// width, on \p Pool.
void probePool(atc::SchedulerPool &Pool, SpanLog &Log);
/// Sequential / AdaptiveTC / Cilk triples at 1 worker on small problems.
void probeOneWorker(SpanLog &Log, Accounting &Jobs);
/// A short open-loop fib:1 session against a fresh loopback JobServer.
void probeHttp(const Options &Opts, SpanLog &Log, Accounting &Jobs);

/// One Sequential / AdaptiveTC / Cilk triple: wall times in ns indexed
/// by kind (0 = Sequential, 1 = AdaptiveTC, 2 = Cilk).
struct Triple {
  double Ns[3] = {0, 0, 0};
};
/// Runs the triple of \p Runner in \p Order (a permutation of 0, 1, 2)
/// under one root span, checking each value against \p Want. AdaptiveTC
/// and Cilk run under \p Base (its worker count and executor).
Triple runTriple(const atc::ProblemRunner &Runner, long long Want,
                 const int Order[3], const atc::SchedulerConfig &Base,
                 SpanLog &Log, Accounting &Jobs);

/// Per-layer metrics derived from the spans of a traced run.
std::vector<Metric> perLayerMetrics(const std::vector<Span> &Spans,
                                    double TraceOverheadShare);

/// The span accounting check: for every span with Phase children, the
/// children's durations must sum to its own within \p GranularityNs per
/// part, and no span may end before it starts. Returns the violations.
std::vector<std::string> checkSpanAccounting(const std::vector<Span> &Spans,
                                             double GranularityNs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
