#ifndef FEDMP_PERFBENCH_PERFBENCH_H_
#define FEDMP_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fedmp.h"

// Shared pieces of the benchmark program: the three workloads, one timed
// repetition of a workload, the output checks, the per-layer timings of the
// traced run, and a flat JSON writer for what the program prints.
namespace fedmp::perfbench {

enum class WorkloadId { kHotpathCnn10, kFleet100k, kAsyncLstm10 };

// Parses a workload name ("hotpath-cnn10", "fleet-100k", "async-lstm10").
bool ParseWorkload(const std::string& name, WorkloadId* out);

// A workload after set-up: the generated task and a constructed trainer
// over it. Heap-allocated and never moved: the trainer keeps a pointer to
// the task.
struct Setup {
  WorkloadId id = WorkloadId::kHotpathCnn10;
  data::FlTask task;
  int num_workers = 0;
  int async_m = 0;  // arrivals per round; 0 for the sync workloads
  std::unique_ptr<fl::Trainer> sync;
  std::unique_ptr<fl::AsyncTrainer> async;
  // Set-up phases, host seconds.
  double make_task_s = 0.0;
  double trainer_init_s = 0.0;
  // VmHWM sampled after task generation, before trainer construction.
  int64_t rss_before_trainer = 0;

  const fl::ParameterServer& server() const;
  fl::RoundLog Run();
};

// Generates the workload's task from `seed` and constructs its trainer with
// `lanes` execution lanes. Everything else is the program's default
// configuration.
std::unique_ptr<Setup> MakeSetup(WorkloadId id, uint64_t seed, int lanes);

// Rounds one trainer run executes for the workload.
int64_t WorkloadRounds(WorkloadId id);

// Steady-clock seconds spent in fn().
double TimeSeconds(const std::function<void()>& fn);

// 64-bit FNV-1a over the float bits of a weight list (bit-identity checks).
uint64_t HashWeights(const nn::TensorList& weights);

// ---------------------------------------------------------------------------
// Checks. Each returns an empty string when the output passes and a
// one-line reason when it does not.
// ---------------------------------------------------------------------------

std::string CheckFinite(const nn::TensorList& weights);
std::string CheckParticipants(const fl::RoundLog& log, int64_t expected);
// Some evaluation during the run reached `target` (time-to-accuracy).
std::string CheckAccuracyReached(const fl::RoundLog& log, double target);
std::string CheckWireBelowDense(const fl::RoundLog& log, int64_t num_params,
                                int64_t workers);
std::string CheckRssBelowNaive(int64_t rss_delta_bytes, int64_t num_params,
                               int64_t workers);
std::string CheckPerplexity(double final_ppl, double initial_ppl,
                            int64_t vocab);

// One synthetic R2SP round at the workload's shapes: per-worker sub-models
// cut from `global` at ratios in (0, 1), trained for real, then aggregated.
struct R2spRound {
  std::vector<pruning::SubModel> subs;        // cut sub-models (masks)
  std::vector<nn::TensorList> trained;        // trained sub-model weights
  std::vector<fl::SubModelUpdate> Updates() const;
};

// Naive R2SP written from the paper's definition: for each update, scatter
// the sub-model into a full-shape copy of the global model (the residual
// keeps every pruned coordinate's global value), then average in slot order.
nn::TensorList NaiveR2sp(const nn::ModelSpec& spec,
                         const nn::TensorList& global,
                         const std::vector<fl::SubModelUpdate>& updates);

// The aggregate matches the naive reference within float tolerance.
std::string CheckR2spMatchesNaive(
    const nn::ModelSpec& spec, const nn::TensorList& global,
    const std::vector<fl::SubModelUpdate>& updates,
    const nn::TensorList& aggregate);

// Every coordinate of a unit that every worker pruned equals the global
// value exactly (R2SP's residual keeps it; nothing trains it).
std::string CheckPrunedByAllKept(
    const nn::ModelSpec& spec, const nn::TensorList& global,
    const std::vector<fl::SubModelUpdate>& updates,
    const nn::TensorList& aggregate);

// Runs every check above on outputs corrupted on purpose (a perturbed
// aggregate, a dropped participant, a non-finite weight, ...) and returns
// the names of the corruptions some check failed to reject.
std::vector<std::string> SelfTestChecks(const Setup& setup,
                                        const fl::RoundLog& log);

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

// One flat JSON object, keys in insertion order.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value);
  JsonLine& Int(const std::string& key, int64_t value);
  JsonLine& Str(const std::string& key, const std::string& value);
  JsonLine& StrList(const std::string& key,
                    const std::vector<std::string>& values);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// The traced run: telemetry on, phase shares from the program's spans, and
// per-layer timings around calls to each module's public functions.
// Appends the per-layer metrics to `out`; check failures go to `failures`,
// and failures of the fixed-input R2SP exactness check, a fault of the
// program that fails on every run, to `known_faults`.
void RunTraced(WorkloadId id, uint64_t seed, int lanes, JsonLine* out,
               std::vector<std::string>* failures,
               std::vector<std::string>* known_faults);

}  // namespace fedmp::perfbench

#endif  // FEDMP_PERFBENCH_PERFBENCH_H_
