//===- perfbench/Probes.cpp - Fixed-input layer probes --------------------===//
//
// Part of the AdaptiveTC project, under the MIT license.
//
// A traced run prints every per-layer metric. Layers its workload does
// not exercise are measured by these probes, whose inputs are the same
// on every workload: pool dispatch and tiny-job cost, the one-worker
// Sequential / AdaptiveTC / Cilk triple, and a short HTTP session.
//
// The HTTP session runs a JobServer in-process with its loopback API on.
// One generator thread POSTs /job on a schedule; the caller long-polls
// GET /result/<id>?wait in submission order.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SchedulerPool.h"
#include "server/Server.h"
#include "support/Error.h"
#include "support/LoopbackHttp.h"
#include "support/Timer.h"
#include "trace/Json.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <thread>

using namespace perfbench;

namespace {

// Enough samples that the p99 has ten beyond it.
constexpr int ProbeSamples = 1100;

/// One job of an open-loop HTTP session.
struct ServeJob {
  std::string Kind;
  int Size = 0;
  int Workers = 1;
  std::uint64_t DueNs = 0;
};

/// Starts a server \p Width workers wide with its HTTP API on an
/// ephemeral loopback port, two HTTP threads and room for \p MaxQueued
/// jobs; aborts if the port cannot be bound.
std::unique_ptr<atc::JobServer> startServer(int Width,
                                            std::size_t MaxQueued) {
  atc::JobServerOptions O;
  O.PoolThreads = Width;
  O.HttpPort = 0;
  O.HttpThreads = 2;
  O.MaxQueuedJobs = MaxQueued;
  auto Server = std::make_unique<atc::JobServer>(O);
  if (!Server->start())
    atc::reportFatalError("cannot bind a loopback port for the job server");
  return Server;
}

std::string label(const ServeJob &J) {
  return J.Kind + "-" + std::to_string(J.Size);
}

/// A submitted job the collector still has to fetch.
struct Pending {
  std::size_t Index = 0;
  std::uint64_t Id = 0;
  std::uint64_t DueNs = 0, PostNs = 0, PostedNs = 0;
};

/// Hands accepted submissions from the generator to the collector.
class PendingQueue {
public:
  void push(Pending P) {
    {
      std::lock_guard<std::mutex> Guard(Lock);
      Items.push_back(P);
    }
    Ready.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> Guard(Lock);
      Closed = true;
    }
    Ready.notify_one();
  }
  /// Next pending job; false once the queue is closed and drained.
  bool pop(Pending &Out) {
    std::unique_lock<std::mutex> Guard(Lock);
    Ready.wait(Guard, [&] { return Closed || !Items.empty(); });
    if (Items.empty())
      return false;
    Out = Items.front();
    Items.pop_front();
    return true;
  }

private:
  std::mutex Lock;
  std::condition_variable Ready;
  std::deque<Pending> Items;
  bool Closed = false;
};

/// Generator-side failures, merged into the caller's accounting after
/// the generator thread has been joined.
struct SubmitErrors {
  std::uint64_t Shed = 0, Failed = 0;
  std::vector<std::string> Errors;
};

void generate(int Port, const std::vector<ServeJob> &Jobs, PendingQueue &Q,
              SubmitErrors &Errs) {
  for (std::size_t I = 0; I != Jobs.size(); ++I) {
    const ServeJob &J = Jobs[I];
    if (atc::nowNanos() < J.DueNs)
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(J.DueNs)));
    std::string Body = "{\"problem\": \"" + J.Kind +
                       "\", \"size\": " + std::to_string(J.Size) +
                       ", \"workers\": " + std::to_string(J.Workers) + "}";
    Pending P;
    P.Index = I;
    P.PostNs = atc::nowNanos();
    P.DueNs = J.DueNs;
    int Status = 0;
    std::string Resp;
    bool Ok = atc::httpRequest(Port, "POST", "/job", Body, Status, Resp);
    P.PostedNs = atc::nowNanos();
    if (Ok && Status == 200) {
      std::size_t At = Resp.find("\"id\": ");
      P.Id = At == std::string::npos
                 ? 0
                 : std::strtoull(Resp.c_str() + At + 6, nullptr, 10);
      Q.push(P);
    } else if (Ok && Status == 429) {
      ++Errs.Shed;
    } else {
      ++Errs.Failed;
      if (Errs.Errors.size() < 8)
        Errs.Errors.push_back("POST /job " + label(J) + ": status " +
                              std::to_string(Status) + " " + Resp);
    }
  }
  Q.close();
}

/// Submits \p Jobs over HTTP from one generator thread and collects the
/// records in submission order on the calling thread, checking each value
/// against \p Oracles (keyed by "kind-size"). Each job gets a "serve.job"
/// span whose phases tile the time from due to record received.
void runServeSession(atc::JobServer &Server,
                     const std::vector<ServeJob> &Jobs,
                     const std::map<std::string, long long> &Oracles,
                     SpanLog &Log, Accounting &Acct) {
  static std::atomic<std::uint64_t> NextJob{1};
  const int Port = Server.httpPort();
  PendingQueue Q;
  SubmitErrors Errs;
  // A jthread joins on every exit path, exceptions included.
  std::jthread Generator([&] { generate(Port, Jobs, Q, Errs); });

  Pending P;
  while (Q.pop(P)) {
    const ServeJob &J = Jobs[P.Index];
    const std::string Label = label(J);
    const std::string Path = "/result/" + std::to_string(P.Id) + "?wait=1000";
    atc::json::Value Rec;
    std::string State;
    // Long-poll until the job is terminal; a minute without one is a loss.
    for (int Attempt = 0; Attempt != 60; ++Attempt) {
      int Status = 0;
      std::string Resp, Err;
      if (!atc::httpRequest(Port, "GET", Path, "", Status, Resp) ||
          Status != 200 || !atc::json::parse(Resp, Rec, Err))
        break;
      State = Rec["state"].stringOr("");
      if (State != "queued" && State != "running")
        break;
    }
    std::uint64_t Received = atc::nowNanos();

    ++Acct.Attempted;
    if (State == "shed" || State == "expired") {
      ++Acct.Shed;
      continue;
    }
    if (State == "failed") {
      ++Acct.FailedState;
      if (Acct.Errors.size() < 8)
        Acct.Errors.push_back(Label + ": " + Rec["error"].stringOr(""));
      continue;
    }
    if (State != "done") {
      ++Acct.Lost;
      if (Acct.Errors.size() < 8)
        Acct.Errors.push_back(Label + ": job " + std::to_string(P.Id) +
                              " lost (state '" + State + "')");
      continue;
    }
    auto Value = static_cast<long long>(Rec["value"].numberOr(-1));
    long long Want = Oracles.at(Label);
    if (Value != Want)
      Acct.mismatch(Label, Value, Want);

    // The in-process record carries the server's absolute timestamps
    // (same clock as ours), which place its queue and run phases inside
    // the client's view of the job.
    if (!Log.enabled())
      continue;
    std::uint64_t C0 = atc::nowNanos();
    atc::JobRecord R;
    if (!Server.getResult(P.Id, R))
      continue;
    std::uint64_t Job = NextJob.fetch_add(1);
    int Width = J.Workers;
    Span Root{"serve.job", P.DueNs, Received, -1, Job};
    Root.Workers = Width;
    Root.Key = Label;
    std::int64_t Id = Log.add(Root);
    auto Phase = [&](const char *Name, std::uint64_t From, std::uint64_t To) {
      Span Sp{Name, From, To, Id, Job, true};
      Sp.Workers = Width;
      Sp.Key = Label;
      return Sp;
    };
    Log.add(Phase("loadgen.late", P.DueNs, P.PostNs));
    Log.add(Phase("http.inbound", P.PostNs, R.SubmitNs));
    Log.add(Phase("server.queue", R.SubmitNs, R.StartNs));
    Span Run = Phase("server.run", R.StartNs, R.EndNs);
    Run.HasStats = true;
    Run.Stats = R.Stats;
    Log.add(std::move(Run));
    Log.add(Phase("http.deliver", R.EndNs, Received));
    Span Submit = Phase("http.submit", P.PostNs, P.PostedNs);
    Submit.Phase = false; // overlaps http.inbound and server.queue
    Log.add(std::move(Submit));
    Log.charge(atc::nowNanos() - C0);
  }
  Generator.join();
  Acct.Attempted += Errs.Shed + Errs.Failed;
  Acct.Shed += Errs.Shed;
  Acct.FailedState += Errs.Failed;
  Acct.Errors.insert(Acct.Errors.end(), Errs.Errors.begin(),
                     Errs.Errors.end());
}

} // namespace

void perfbench::probePool(atc::SchedulerPool &Pool, SpanLog &Log) {
  const int Full = Pool.size();
  const std::function<void(int)> Noop = [](int) {};
  std::uint64_t Job = 0;
  for (int I = 0; I != ProbeSamples; ++I)
    for (int Width : {1, Full}) {
      std::uint64_t T0 = atc::nowNanos();
      Pool.dispatch(Width, Noop);
      Span S{"pool.dispatch", T0, atc::nowNanos(), -1, ++Job};
      S.Workers = Width;
      Log.add(std::move(S));
    }

  atc::ProblemRunner Fib = registryRunner("fib", 1);
  atc::SchedulerConfig Cfg;
  Cfg.NumWorkers = Full;
  Cfg.Executor = &Pool;
  for (int I = 0; I != ProbeSamples; ++I) {
    std::uint64_t T0 = atc::nowNanos();
    atc::RunResult<long long> R = Fib.Run(Cfg);
    Span S{"runtime.tiny_job", T0, atc::nowNanos(), -1, ++Job};
    S.Workers = Full;
    S.Key = Fib.Workload;
    S.HasStats = true;
    S.Stats = R.Stats;
    Log.add(std::move(S));
  }
}

void perfbench::probeOneWorker(SpanLog &Log, Accounting &Jobs) {
  const std::pair<const char *, int> Mix[] = {
      {"nqueens-array", 10}, {"sudoku", 1}, {"comp", 2000}};
  constexpr int Rounds = 5;
  static const int Orders[3][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
  const atc::SchedulerConfig Cfg; // 1 worker, AdaptiveTC
  for (const auto &[Kind, Size] : Mix) {
    atc::ProblemRunner Runner = registryRunner(Kind, Size);
    long long Want = Runner.RunSequential();
    for (int R = 0; R != Rounds; ++R)
      runTriple(Runner, Want, Orders[R % 3], Cfg, Log, Jobs);
  }
}

void perfbench::probeHttp(const Options &Opts, SpanLog &Log,
                          Accounting &Jobs) {
  constexpr double Rate = 2000; // jobs/s offered
  std::unique_ptr<atc::JobServer> Server =
      startServer(std::max(1, Opts.Nproc - 1), 256);
  std::mt19937_64 Rng(Opts.Seed);
  std::exponential_distribution<double> Gap(Rate);
  std::vector<ServeJob> Stream(ProbeSamples, ServeJob{"fib", 1, 1, 0});
  double Due = static_cast<double>(atc::nowNanos()) + 5e6;
  for (ServeJob &J : Stream) {
    Due += Gap(Rng) * 1e9;
    J.DueNs = static_cast<std::uint64_t>(Due);
  }
  runServeSession(*Server, Stream, {{"fib-1", 1}}, Log, Jobs);
}
