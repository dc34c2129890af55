//===- perfbench/Workloads.cpp - The solve and overhead_1w workloads ------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
// Both workloads are closed loops of paired runs on one client thread.
// Every job runs a problem three times back to back, in a seeded order:
// Sequential, AdaptiveTC and Cilk, the last two at the workload's width.
// The end-to-end metrics are ratios within one such triple, so the three
// runs see the same host speed and a host that slows down for a while
// (other tenants on its cores) moves every run of a triple alike.
//
//  * solve: full width (nproc workers) on one persistent SchedulerPool;
//    registry problems that take about 1-100 ms at 4 workers plus seeded
//    unbalanced synthetic trees. Stealing, need_task reseeding, FSM
//    transitions and termination do the work.
//  * overhead_1w: 1 worker, paper Table 2. The fake-task path and the
//    disarmed trace/metric/tuning sites do the work; no steal, pool or
//    server code runs.
//
// Each round runs every problem once (and, on solve, one tree of each
// shape), so every seed measures the same mix.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SchedulerPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>
#include <random>

using namespace perfbench;

namespace {

struct Problem {
  atc::ProblemRunner Runner;
  std::string Key; ///< Ratio group: the problem, or the tree's shape.
  long long Want = 0;
};

/// Paired ratios of one group, one per job.
struct Ratios {
  std::vector<double> AtcOverSeq, AtcOverCilk;
};

struct Mix {
  std::vector<std::pair<const char *, int>> Registry;
  int TreesPerShape = 0; ///< Seeded trees of each shape, used in turn.
};

const char *TreeShapes[] = {"tree3l", "tree3r"};
constexpr long long TreeNodes = 300'000;
constexpr int TreeSpin = 100;

// Problems that take about 1-100 ms at 4 workers.
const Mix SolveMix = {{{"nqueens-array", 12},
                       {"nqueens-compute", 11},
                       {"fib", 32},
                       {"knights", 5},
                       {"pentomino", 7},
                       {"strimko", 5},
                       {"sudoku", 0}},
                      2};

// Sizes large enough that per-run set-up does not dominate the ratio.
// Fib stops at 30: Cilk takes about 25x sequential there.
const Mix OverheadMix = {{{"nqueens-array", 12},
                          {"nqueens-compute", 11},
                          {"fib", 30},
                          {"comp", 6000},
                          {"knights", 5},
                          {"pentomino", 7}},
                         0};

std::vector<Problem> makeProblems(const Mix &M,
                                  const std::vector<std::uint64_t> &Seeds) {
  std::vector<Problem> Out;
  for (const auto &[Kind, Size] : M.Registry) {
    Problem &P = Out.emplace_back();
    P.Runner = registryRunner(Kind, Size);
    P.Key = P.Runner.Workload;
  }
  std::size_t Next = 0;
  for (const char *Shape : TreeShapes)
    for (int I = 0; I != M.TreesPerShape; ++I, ++Next) {
      Problem &P = Out.emplace_back();
      P.Runner = treeRunner(Shape, TreeNodes, Seeds[Next], TreeSpin,
                            std::string(Shape) + "-" + std::to_string(I));
      P.Key = Shape;
    }
  return Out;
}

Outcome runPaired(const Options &Opts, SpanLog &Log, const Mix &M,
                  int Width) {
  Outcome Out;
  std::mt19937_64 Rng(Opts.Seed);
  std::vector<std::uint64_t> TreeSeeds;
  for (std::size_t I = 0; I != std::size(TreeShapes) * M.TreesPerShape; ++I)
    TreeSeeds.push_back(Rng());

  atc::SchedulerConfig Cfg;
  Cfg.NumWorkers = Width;

  // Set-up: pool start (full width only), problem construction,
  // sequential oracles and one warm-up AdaptiveTC run per problem.
  std::unique_ptr<atc::SchedulerPool> Pool;
  std::vector<Problem> Problems;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    std::uint64_t T0 = atc::nowNanos();
    if (Width > 1) {
      Pool.reset();
      Pool = std::make_unique<atc::SchedulerPool>(Width);
      Cfg.Executor = Pool.get();
    }
    std::vector<Problem> Fresh = makeProblems(M, TreeSeeds);
    for (std::size_t I = 0; I != Fresh.size(); ++I) {
      Problem &P = Fresh[I];
      P.Want = P.Runner.RunSequential();
      if (Rep > 0 && P.Want != Problems[I].Want)
        Out.Jobs.mismatch(P.Runner.Workload + " oracle", P.Want,
                          Problems[I].Want);
      long long Got = P.Runner.Run(Cfg).Value;
      ++Out.Jobs.Attempted;
      if (Got != P.Want)
        Out.Jobs.mismatch(P.Runner.Workload, Got, P.Want);
    }
    Problems = std::move(Fresh);
    SetupS.push_back(static_cast<double>(atc::nowNanos() - T0) * 1e-9);
  }
  Out.SetupS = median(SetupS);

  // Measurement: whole rounds until the time is up.
  const std::size_t NumRegistry = M.Registry.size();
  std::map<std::string, Ratios> ByKey;
  std::vector<double> AtcNs;
  Out.MeasureStartNs = atc::nowNanos();
  const auto Deadline =
      Out.MeasureStartNs + static_cast<std::uint64_t>(Opts.Seconds * 1e9);
  for (int Round = 0; atc::nowNanos() < Deadline; ++Round) {
    std::vector<std::size_t> Deck;
    for (std::size_t I = 0; I != NumRegistry; ++I)
      Deck.push_back(I);
    for (std::size_t S = 0; M.TreesPerShape && S != std::size(TreeShapes);
         ++S)
      Deck.push_back(NumRegistry + S * M.TreesPerShape +
                     static_cast<std::size_t>(Round % M.TreesPerShape));
    std::shuffle(Deck.begin(), Deck.end(), Rng);
    for (std::size_t Idx : Deck) {
      const Problem &P = Problems[Idx];
      int Order[3] = {0, 1, 2};
      std::shuffle(Order, Order + 3, Rng);
      Triple T = runTriple(P.Runner, P.Want, Order, Cfg, Log, Out.Jobs);
      Ratios &R = ByKey[P.Key];
      R.AtcOverSeq.push_back(T.Ns[1] / T.Ns[0]);
      R.AtcOverCilk.push_back(T.Ns[1] / T.Ns[2]);
      AtcNs.push_back(T.Ns[1]);
    }
  }
  Out.MeasureEndNs = atc::nowNanos();
  Out.TraceCostNs = Log.costNs();

  // Per group the median of its paired ratios, then the geometric mean
  // over groups, so every problem weighs the same whatever its size.
  std::vector<double> AtcSeq, AtcCilk;
  for (const auto &[Key, R] : ByKey) {
    AtcSeq.push_back(median(R.AtcOverSeq));
    AtcCilk.push_back(median(R.AtcOverCilk));
  }
  Out.EndToEnd = {
      {"atc_over_cilk", geomean(AtcCilk), "ratio"},
      {"atc_over_seq", geomean(AtcSeq), "ratio"},
      {"atc_over_seq_max", *std::max_element(AtcSeq.begin(), AtcSeq.end()),
       "ratio"},
  };
  double AtcTotalNs = 0;
  for (double Ns : AtcNs)
    AtcTotalNs += Ns;
  Out.Absolute = {
      {"atc_jobs_per_s",
       static_cast<double>(AtcNs.size()) / (AtcTotalNs * 1e-9), "1/s"},
      {"atc_ms_p50", median(AtcNs) * 1e-6, "ms"},
      {"atc_ms_p95", quantile(AtcNs, 0.95) * 1e-6, "ms"},
      {"atc_jobs", static_cast<double>(AtcNs.size()), "count"},
  };

  if (Log.enabled()) {
    Log.setProbe(true);
    std::unique_ptr<atc::SchedulerPool> Own;
    if (!Pool)
      Own = std::make_unique<atc::SchedulerPool>(Opts.Nproc);
    probePool(Pool ? *Pool : *Own, Log);
    if (Width > 1)
      probeOneWorker(Log, Out.Jobs);
    probeHttp(Opts, Log, Out.Jobs);
    Log.setProbe(false);
  }
  return Out;
}

} // namespace

Outcome perfbench::runSolve(const Options &Opts, SpanLog &Log) {
  return runPaired(Opts, Log, SolveMix, Opts.Nproc);
}

Outcome perfbench::runOverhead(const Options &Opts, SpanLog &Log) {
  return runPaired(Opts, Log, OverheadMix, 1);
}
