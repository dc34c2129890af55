//===- perfbench/Layers.cpp - Per-layer metrics from spans ----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
// Derives every per-layer metric from the spans of a traced run: timings
// from span durations, counts from the RunResult::Stats / record stats
// the spans carry. Kernel counters come from the workload's own jobs;
// the remaining layers take whatever spans of their kind the run holds,
// workload or probe.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace perfbench;

namespace {

double duration(const Span &S) {
  return static_cast<double>(S.EndNs - S.StartNs);
}

double ratioOrZero(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// A triple's root span tells its width; 1-worker triples feed the
/// one-worker layer metrics whichever workload or probe ran them.
bool inOneWorkerTriple(const std::vector<Span> &Spans, const Span &S) {
  return S.Parent >= 0 &&
         Spans[static_cast<std::size_t>(S.Parent)].Workers == 1;
}

} // namespace

std::vector<Metric>
perfbench::perLayerMetrics(const std::vector<Span> &Spans,
                           double TraceOverheadShare) {
  // core/kernel and deque counters over the workload's own AdaptiveTC
  // runs, and each run's time over its problem's median (the tail).
  atc::SchedulerStats Sum;
  double Jobs = 0, WorkerNs = 0;
  std::uint64_t PoolOverflows = 0;
  std::map<std::string, std::vector<double>> AtcByKey;
  for (const Span &S : Spans) {
    if (S.HasStats)
      PoolOverflows += S.Stats.PoolOverflows;
    if (S.Probe || S.Name != "call.adaptivetc")
      continue;
    Sum += S.Stats;
    Jobs += 1;
    WorkerNs += duration(S) * S.Workers;
    AtcByKey[S.Key].push_back(duration(S));
  }
  // Cilk over sequential per workload triple, median per problem.
  std::map<std::int64_t, std::pair<double, double>> SeqCilkByTriple;
  for (const Span &S : Spans) {
    if (S.Probe || S.Parent < 0)
      continue;
    if (S.Name == "call.sequential")
      SeqCilkByTriple[S.Parent].first = duration(S);
    else if (S.Name == "call.cilk")
      SeqCilkByTriple[S.Parent].second = duration(S);
  }
  std::map<std::string, std::vector<double>> CilkOverSeqByKey;
  for (const auto &[Parent, SeqCilk] : SeqCilkByTriple)
    CilkOverSeqByKey[Spans[static_cast<std::size_t>(Parent)].Key].push_back(
        SeqCilk.second / SeqCilk.first);
  std::vector<double> CilkOverSeq;
  for (const auto &[Key, Ratios] : CilkOverSeqByKey)
    CilkOverSeq.push_back(median(Ratios));

  std::vector<double> OverMedian;
  for (const auto &[Key, Ns] : AtcByKey) {
    double Med = median(Ns);
    for (double X : Ns)
      OverMedian.push_back(X / Med);
  }

  // One-worker triples, from the workload or the probe.
  double SeqNs = 0, AtcNs = 0, CilkNs = 0, AtcNodes = 0, Spawns = 0,
         Bytes = 0;
  std::vector<double> DispatchW1, DispatchFull, Tiny;
  int FullWidth = 0;
  for (const Span &S : Spans)
    if (S.Name == "pool.dispatch")
      FullWidth = std::max(FullWidth, S.Workers);
  for (const Span &S : Spans) {
    bool OneWorker = inOneWorkerTriple(Spans, S);
    if (OneWorker && S.Name == "call.sequential") {
      SeqNs += duration(S);
    } else if (OneWorker && S.Name == "call.adaptivetc") {
      AtcNs += duration(S);
      AtcNodes += nodes(S.Stats);
    } else if (OneWorker && S.Name == "call.cilk") {
      CilkNs += duration(S);
      Spawns += static_cast<double>(S.Stats.Spawns);
      Bytes += static_cast<double>(S.Stats.CopiedBytes);
    } else if (S.Name == "pool.dispatch") {
      // A 1-wide pool has one kind of dispatch; count it for both widths.
      if (S.Workers == 1)
        DispatchW1.push_back(duration(S));
      if (S.Workers == FullWidth)
        DispatchFull.push_back(duration(S));
    } else if (S.Name == "runtime.tiny_job") {
      Tiny.push_back(duration(S));
    }
  }

  // server + support/LoopbackHttp: the phases of the HTTP probe's jobs.
  std::map<std::string, std::vector<double>> Serve;
  for (const Span &S : Spans)
    if (S.Parent >= 0 &&
        Spans[static_cast<std::size_t>(S.Parent)].Name == "serve.job")
      Serve[S.Name].push_back(duration(S));

  auto Us = [](double Ns) { return Ns * 1e-3; };
  auto Ms = [](double Ns) { return Ns * 1e-6; };
  return {
      {"kernel.ns_per_node", ratioOrZero(WorkerNs, nodes(Sum)), "ns"},
      {"kernel.ns_per_node_1w", ratioOrZero(AtcNs, AtcNodes), "ns"},
      {"kernel.fake_share",
       ratioOrZero(static_cast<double>(Sum.FakeTasks), nodes(Sum)), "share"},
      {"kernel.reseeds_per_job",
       ratioOrZero(static_cast<double>(Sum.SpecialTasks), Jobs), "count"},
      {"kernel.steal_success",
       ratioOrZero(static_cast<double>(Sum.Steals),
                   static_cast<double>(Sum.StealAttempts)),
       "share"},
      {"kernel.idle_share",
       ratioOrZero(static_cast<double>(Sum.StealWaitNs), WorkerNs), "share"},
      {"kernel.sync_wait_share",
       ratioOrZero(static_cast<double>(Sum.WaitChildrenNs), WorkerNs),
       "share"},
      {"kernel.tail_p95_over_p50", quantile(OverMedian, 0.95), "ratio"},
      {"problems.seq_ns_per_node", ratioOrZero(SeqNs, AtcNodes), "ns"},
      {"deque.spawn_ns", ratioOrZero(CilkNs - SeqNs, Spawns), "ns"},
      {"deque.cilk_over_seq", geomean(CilkOverSeq), "ratio"},
      {"deque.lock_acquires_per_steal",
       ratioOrZero(static_cast<double>(Sum.LockAcquires),
                   static_cast<double>(Sum.Steals)),
       "count"},
      {"deque.overflows", static_cast<double>(Sum.DequeOverflows), "count"},
      {"arena.copied_bytes_per_spawn", ratioOrZero(Bytes, Spawns), "B"},
      {"arena.pool_overflows", static_cast<double>(PoolOverflows), "count"},
      {"pool.dispatch_us_p50_w1", Us(median(DispatchW1)), "us"},
      {"pool.dispatch_us_p99_w1", Us(quantile(DispatchW1, 0.99)), "us"},
      {"pool.dispatch_us_p50_full", Us(median(DispatchFull)), "us"},
      {"pool.dispatch_us_p99_full", Us(quantile(DispatchFull, 0.99)), "us"},
      // A tiny job minus the median cost of the dispatch inside it.
      {"runtime.tiny_job_us_p50", Us(median(Tiny) - median(DispatchFull)),
       "us"},
      {"runtime.tiny_job_us_p99",
       Us(quantile(Tiny, 0.99) - median(DispatchFull)), "us"},
      {"http.submit_us_p50", Us(median(Serve["http.submit"])), "us"},
      {"http.submit_us_p99", Us(quantile(Serve["http.submit"], 0.99)), "us"},
      {"server.queue_ms_p50", Ms(median(Serve["server.queue"])), "ms"},
      {"server.queue_ms_p99", Ms(quantile(Serve["server.queue"], 0.99)),
       "ms"},
      {"server.run_ms_p50", Ms(median(Serve["server.run"])), "ms"},
      {"server.deliver_us_p50", Us(median(Serve["http.deliver"])), "us"},
      {"loadgen.late_ms_p99", Ms(quantile(Serve["loadgen.late"], 0.99)),
       "ms"},
      {"trace.overhead_share", TraceOverheadShare, "share"},
  };
}

std::vector<std::string>
perfbench::checkSpanAccounting(const std::vector<Span> &Spans,
                               double GranularityNs) {
  std::vector<double> Covered(Spans.size(), 0);
  std::vector<int> Parts(Spans.size(), 0);
  std::vector<std::string> Problems;
  for (const Span &S : Spans) {
    if (S.EndNs < S.StartNs && Problems.size() < 8)
      Problems.push_back(S.Name + " of job " + std::to_string(S.Job) +
                         " ends before it starts");
    if (!S.Phase || S.Parent < 0)
      continue;
    auto P = static_cast<std::size_t>(S.Parent);
    Covered[P] += static_cast<double>(S.EndNs) - static_cast<double>(S.StartNs);
    ++Parts[P];
  }
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    if (Parts[I] == 0)
      continue;
    double Outside = duration(Spans[I]);
    double Slack = GranularityNs * (Parts[I] + 1);
    if (std::abs(Covered[I] - Outside) > Slack && Problems.size() < 8)
      Problems.push_back(Spans[I].Name + " of job " +
                         std::to_string(Spans[I].Job) + ": phases sum to " +
                         std::to_string(Covered[I]) + " ns, outside " +
                         std::to_string(Outside) + " ns");
  }
  return Problems;
}
