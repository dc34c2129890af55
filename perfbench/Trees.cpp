//===- perfbench/Trees.cpp - Seeded synthetic-tree runners ----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
// Wraps a SyntheticTreeProblem in the same type-erased ProblemRunner the
// registry hands out, so the solve workload treats seeded unbalanced
// trees exactly like registry problems. Kept in its own translation unit
// because runProblem instantiates every scheduler kind over the tree
// problem.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sim/SyntheticTreeProblem.h"

#include <memory>

using namespace perfbench;

atc::ProblemRunner perfbench::treeRunner(const std::string &Preset,
                                         long long Nodes,
                                         std::uint64_t TreeSeed,
                                         int SpinPerNode,
                                         const std::string &Label) {
  atc::TreeSpec Spec = atc::SimTree::preset(Preset, Nodes);
  Spec.Seed = TreeSeed;
  auto Prob = std::make_shared<atc::SyntheticTreeProblem>(Spec, SpinPerNode);
  auto Root = std::make_shared<atc::SyntheticTreeProblem::State>(
      Prob->makeRoot());

  atc::ProblemRunner R;
  R.Kind = Preset;
  R.Size = 0;
  R.Workload = Label;
  R.Run = [Prob, Root](const atc::SchedulerConfig &Cfg) {
    return atc::runProblem(*Prob, *Root, Cfg);
  };
  R.RunSequential = [Prob, Root]() {
    atc::SyntheticTreeProblem::State S = *Root;
    return static_cast<long long>(atc::runSequential(*Prob, S));
  };
  return R;
}
