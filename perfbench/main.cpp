//===- perfbench/main.cpp - Benchmark harness entry point -----------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
// perfbench_harness --workload solve|overhead_1w --seed N
//                   --seconds S --trace 0|1 [--spans FILE]
//
// Prints a host record line, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Exits 1 when any job's value differs from its oracle, a
// job is lost or fails, or a traced run fails the span accounting check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "solve|overhead_1w --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Val = Argv[++I];
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Val);
    else if (Flag == "--trace")
      O.Trace = std::strcmp(Val, "1") == 0;
    else if (Flag == "--spans")
      O.SpanFile = Val;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (O.Workload != "solve" && O.Workload != "overhead_1w")
    usage("unknown workload");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

/// CPUs this process may run on (what `nproc` prints).
int availableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  for (unsigned I = 0; I != 3; ++I)
    if (!__get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                     &Regs[4 * I + 2], &Regs[4 * I + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S = Brand;
  S.erase(0, S.find_first_not_of(' '));
  return S;
#else
  return "unknown";
#endif
}

/// Smallest nonzero step between consecutive clock reads.
double clockGranularityNs() {
  std::uint64_t Best = ~0ull;
  for (int I = 0; I != 1000; ++I) {
    std::uint64_t A = atc::nowNanos(), B = atc::nowNanos();
    while (B == A)
      B = atc::nowNanos();
    Best = std::min(Best, B - A);
  }
  return static_cast<double>(Best);
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);
  Opts.Nproc = availableCpus();

  // Worker threads the workload runs: solve nproc, overhead_1w one.
  int Width = Opts.Workload == "solve" ? Opts.Nproc : 1;
  std::printf("{\"host\": {\"nproc\": %d, \"cpu_model\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"atc_trace\": %d, \"atc_metrics\": %d, \"atc_tuning\": %d, "
              "\"workload\": \"%s\", \"workers\": %d, \"seed\": %llu}}\n",
              Opts.Nproc, escape(cpuModel()).c_str(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, ATC_TRACE_ENABLED, ATC_METRICS_ENABLED,
              ATC_TUNING_ENABLED, Opts.Workload.c_str(), Width,
              static_cast<unsigned long long>(Opts.Seed));
  if (Width > Opts.Nproc) {
    std::fprintf(stderr, "refusing to run: %d workers on %d CPUs\n", Width,
                 Opts.Nproc);
    return 2;
  }

  SpanLog Log(Opts.Trace);
  Outcome Out =
      Opts.Workload == "solve" ? runSolve(Opts, Log) : runOverhead(Opts, Log);

  std::vector<Metric> Metrics;
  bool Correct = Out.Jobs.correct();
  if (Opts.Trace) {
    double Granularity = clockGranularityNs();
    for (const std::string &P :
         checkSpanAccounting(Log.spans(), Granularity)) {
      std::fprintf(stderr, "span accounting: %s\n", P.c_str());
      Correct = false;
    }
    double Wall =
        static_cast<double>(Out.MeasureEndNs - Out.MeasureStartNs);
    Metrics = perLayerMetrics(Log.spans(),
                              static_cast<double>(Out.TraceCostNs) / Wall);
    if (!Opts.SpanFile.empty() && !Log.writeJson(Opts.SpanFile, Granularity)) {
      std::fprintf(stderr, "cannot write %s\n", Opts.SpanFile.c_str());
      Correct = false;
    }
  } else {
    Metrics.push_back({"setup_s", Out.SetupS, "s"});
    Metrics.insert(Metrics.end(), Out.EndToEnd.begin(), Out.EndToEnd.end());
  }
  std::string Info = "{\"absolute\": {";
  for (std::size_t I = 0; I != Out.Absolute.size(); ++I)
    Info += (I ? ", \"" : "\"") + Out.Absolute[I].Name + "\": {\"value\": " +
            std::to_string(Out.Absolute[I].Value) + ", \"unit\": \"" +
            Out.Absolute[I].Unit + "\"}";
  std::printf("%s}}\n", Info.c_str());
  for (const std::string &E : Out.Jobs.Errors)
    std::fprintf(stderr, "job error: %s\n", E.c_str());

  std::string Json = ", \"attempted\": " + std::to_string(Out.Jobs.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Jobs.failed());
  Json += ", \"metrics\": {";
  for (std::size_t I = 0; I != Metrics.size(); ++I) {
    if (!std::isfinite(Metrics[I].Value)) {
      std::fprintf(stderr, "metric %s is not finite\n",
                   Metrics[I].Name.c_str());
      Correct = false;
      Metrics[I].Value = 0;
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  I == 0 ? "" : ", ", Metrics[I].Name.c_str(),
                  Metrics[I].Value, Metrics[I].Unit.c_str());
    Json += Buf;
  }
  Json += "}}";
  std::printf("{\"correct\": %s%s\n", Correct ? "true" : "false",
              Json.c_str());
  return Correct ? 0 : 1;
}
