//===- perfbench/Common.cpp - Spans, statistics, oracles ------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Error.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

std::int64_t SpanLog::add(Span S) {
  if (!Enabled)
    return -1;
  S.Probe = ProbeMode.load();
  std::lock_guard<std::mutex> Guard(Lock);
  Spans.push_back(std::move(S));
  return static_cast<std::int64_t>(Spans.size()) - 1;
}

bool SpanLog::writeJson(const std::string &Path, double GranularityNs) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"clock_granularity_ns\": %.1f, \"spans\": [\n",
               GranularityNs);
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"job\": %llu, "
                 "\"phase\": %s, \"probe\": %s, \"workers\": %d, "
                 "\"key\": \"%s\"",
                 I == 0 ? "" : ",\n", I, S.Name.c_str(),
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Job),
                 S.Phase ? "true" : "false", S.Probe ? "true" : "false",
                 S.Workers, S.Key.c_str());
    if (S.HasStats)
      std::fprintf(F, ", \"stats\": %s", S.Stats.json().c_str());
    std::fputs("}", F);
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

void Accounting::mismatch(const std::string &Key, long long Got,
                          long long Want) {
  ++Mismatched;
  if (Errors.size() < 8)
    Errors.push_back(Key + ": got " + std::to_string(Got) + ", oracle " +
                     std::to_string(Want));
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  auto Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

atc::ProblemRunner perfbench::registryRunner(const std::string &Kind,
                                             int Size) {
  atc::ProblemRunner R;
  std::string Err;
  if (!atc::makeProblemRunner(Kind, Size, R, Err))
    atc::reportFatalError(Err);
  return R;
}

Triple perfbench::runTriple(const atc::ProblemRunner &Runner,
                            long long Want, const int Order[3],
                            const atc::SchedulerConfig &Base, SpanLog &Log,
                            Accounting &Jobs) {
  const std::string &Key = Runner.Workload;
  static const atc::SchedulerKind Kinds[3] = {atc::SchedulerKind::Sequential,
                                              atc::SchedulerKind::AdaptiveTC,
                                              atc::SchedulerKind::Cilk};
  static const char *Names[3] = {"call.sequential", "call.adaptivetc",
                                 "call.cilk"};
  static std::atomic<std::uint64_t> NextJob{1};
  std::uint64_t Job = NextJob.fetch_add(1);

  Triple T;
  std::vector<Span> Parts;
  std::uint64_t Start = atc::nowNanos();
  std::uint64_t Mark = Start;
  for (int I = 0; I != 3; ++I) {
    int K = Order[I];
    atc::SchedulerConfig Cfg = K == 0 ? atc::SchedulerConfig() : Base;
    Cfg.Kind = Kinds[K];
    atc::RunResult<long long> R = Runner.Run(Cfg);
    std::uint64_t Ran = atc::nowNanos();
    ++Jobs.Attempted;
    if (R.Value != Want)
      Jobs.mismatch(Key + " " + atc::schedulerKindName(Kinds[K]), R.Value,
                    Want);
    std::uint64_t Checked = atc::nowNanos();
    T.Ns[K] = static_cast<double>(Ran - Mark);
    if (Log.enabled()) {
      Span Call{Names[K], Mark, Ran, -1, Job, true};
      Call.Workers = Cfg.NumWorkers;
      Call.Key = Key;
      Call.HasStats = K != 0;
      Call.Stats = R.Stats;
      Parts.push_back(std::move(Call));
      Parts.push_back(Span{"check", Ran, Checked, -1, Job, true});
      // The check phase absorbs the recording, so the phases still tile.
      std::uint64_t Now = atc::nowNanos();
      Log.charge(Now - Checked);
      Parts.back().EndNs = Now;
      Checked = Now;
    }
    Mark = Checked;
  }
  if (Log.enabled()) {
    std::uint64_t C0 = atc::nowNanos();
    Span Root{"triple", Start, Mark, -1, Job};
    Root.Workers = Base.NumWorkers;
    Root.Key = Key;
    std::int64_t Id = Log.add(std::move(Root));
    for (Span &P : Parts) {
      P.Parent = Id;
      Log.add(std::move(P));
    }
    Log.charge(atc::nowNanos() - C0);
  }
  return T;
}
