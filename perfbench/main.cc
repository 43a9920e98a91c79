// Benchmark program: one process runs one repetition of one workload and
// prints one JSON line. perfbench/run.py builds this binary, runs the
// repetitions, checks and aggregates them (see perfbench/README.md).
//
//   perfbench rep   <workload> <seed> <lanes>
//       Set-up and Run() timed with telemetry off, then the workload's
//       output checks and the self-test of those checks.
//   perfbench trace <workload> <seed> <lanes>
//       The traced run: phase shares from the program's spans, per-layer
//       timings and counters.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/mem_info.h"
#include "perfbench.h"

using namespace fedmp;
using namespace fedmp::perfbench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string HexHash(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int RunRep(WorkloadId id, uint64_t seed, int lanes) {
  std::unique_ptr<Setup> setup = MakeSetup(id, seed, lanes);
  double initial_ppl = 0.0;
  if (setup->async_m > 0) {
    initial_ppl = setup->server()
                      .Evaluate(setup->task.test, 50, true)
                      .perplexity;
  }
  fl::RoundLog log;
  const double run_s = TimeSeconds([&] { log = setup->Run(); });
  const int64_t rss_delta = PeakRssBytes() - setup->rss_before_trainer;

  const int64_t rounds = static_cast<int64_t>(log.records().size());
  int64_t wire = 0, aggregated = 0;
  for (const fl::RoundRecord& r : log.records()) {
    wire += r.bytes_up + r.bytes_down;
    aggregated += r.participants;
  }
  const fl::RoundRecord last = log.empty() ? fl::RoundRecord{}
                                           : log.records().back();
  const nn::TensorList& weights = setup->server().weights();
  const int64_t num_params = setup->task.model.NumParams();

  std::vector<std::string> failures;
  auto check = [&](const std::string& reason) {
    if (!reason.empty()) failures.push_back(reason);
  };
  check(CheckFinite(weights));
  if (rounds != WorkloadRounds(id)) check("run stopped before its last round");
  switch (id) {
    case WorkloadId::kHotpathCnn10:
      check(CheckAccuracyReached(log, setup->task.target_accuracy));
      break;
    case WorkloadId::kFleet100k:
      check(CheckParticipants(log, setup->num_workers));
      check(CheckWireBelowDense(log, num_params, setup->num_workers));
      check(CheckRssBelowNaive(rss_delta, num_params, setup->num_workers));
      break;
    case WorkloadId::kAsyncLstm10:
      check(CheckParticipants(log, setup->async_m));
      check(CheckPerplexity(last.test_perplexity, initial_ppl,
                            setup->task.model.num_classes));
      break;
  }

  JsonLine out;
  out.Num("setup_s", setup->make_task_s + setup->trainer_init_s)
      .Num("make_task_s", setup->make_task_s)
      .Num("trainer_init_s", setup->trainer_init_s)
      .Num("run_s", run_s)
      .Int("rounds", rounds)
      .Num("round_wall_s", rounds > 0 ? run_s / static_cast<double>(rounds)
                                      : 0.0)
      .Num("peak_rss_delta_mib", static_cast<double>(rss_delta) / kMiB)
      .Num("wire_mib_per_round",
           rounds > 0 ? static_cast<double>(wire) / kMiB /
                            static_cast<double>(rounds)
                      : 0.0)
      .Num("sim_round_s",
           rounds > 0 ? log.TotalSimTime() / static_cast<double>(rounds)
                      : 0.0)
      .Num("final_test_loss", last.test_loss)
      .Num("final_accuracy", last.test_accuracy)
      .Num("final_perplexity", last.test_perplexity)
      .Num("initial_perplexity", initial_ppl)
      .Int("updates_aggregated", aggregated)
      .Str("weights_hash", HexHash(HashWeights(weights)))
      .StrList("failures", failures)
      .StrList("selftest_missed", SelfTestChecks(*setup, log));
  // The sync engine dispatches every worker every round; the async engine's
  // dispatch count is read from its trace (the traced run).
  if (setup->sync != nullptr) {
    out.Int("updates_dispatched", rounds * setup->num_workers);
  }
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench rep|trace <workload> <seed> <lanes>\n"
               "workloads: hotpath-cnn10 fleet-100k async-lstm10\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) return Usage();
  const std::string mode = argv[1];
  WorkloadId id;
  if (!ParseWorkload(argv[2], &id)) return Usage();
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') return Usage();
  const int lanes = std::atoi(argv[4]);
  if (lanes < 1 || lanes > 64) return Usage();
  if (mode == "rep") return RunRep(id, seed, lanes);
  if (mode == "trace") {
    JsonLine out;
    std::vector<std::string> failures, known_faults;
    RunTraced(id, seed, lanes, &out, &failures, &known_faults);
    out.StrList("failures", failures).StrList("known_faults", known_faults);
    std::printf("%s\n", out.Render().c_str());
    return 0;
  }
  return Usage();
}
