// The traced run: where a round's wall time goes (from the program's own
// spans and counters), and per-layer timings taken around calls into each
// module's public functions at the workload's shapes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/thread_pool.h"
#include "data/dataloader.h"
#include "edge/cost_model.h"
#include "fl/pipeline.h"
#include "fl/resource_accounting.h"
#include "fl/strategies/fedmp_strategy.h"
#include "nn/flops.h"
#include "nn/layers/conv2d.h"
#include "nn/layers/linear.h"
#include "nn/layers/lstm.h"
#include "nn/sgd.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "pruning/recovery.h"
#include "pruning/structured_pruner.h"

namespace fedmp::perfbench {

namespace {

// Per-call seconds of fn(): calibrated so one batch of calls lasts at least
// kBatchSeconds, then the median over kBatches batches.
constexpr double kBatchSeconds = 0.004;
constexpr int kBatches = 7;

double PerCall(const std::function<void()>& fn) {
  fn();  // warm-up: first-touch allocations and caches
  int64_t iters = 1;
  for (;;) {
    const double t = TimeSeconds([&] {
      for (int64_t i = 0; i < iters; ++i) fn();
    });
    if (t >= kBatchSeconds || iters >= (int64_t{1} << 20)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    per_call.push_back(TimeSeconds([&] {
                         for (int64_t i = 0; i < iters; ++i) fn();
                       }) /
                       static_cast<double>(iters));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// ---------------------------------------------------------------------------
// Phase attribution from the program's spans.
// ---------------------------------------------------------------------------

// Phases in priority order: when several are active at one instant, the
// instant goes to the first. Phases on the trainer's own thread come before
// worker training, so the wall time a phase blocks the round is charged to it
// even while other lanes still train.
const char* const kPhases[] = {"evaluate", "aggregate", "rank_units",
                               "plan_round", "worker_train"};
constexpr int kNumPhases = 5;

int PhaseOf(const std::string& span) {
  for (int p = 0; p < kNumPhases; ++p) {
    if (span == kPhases[p]) return p;
  }
  // Aggregation work the aggregate phase fans out to other lanes.
  if (span == "ps_shard_fold" || span == "fog_aggregate" ||
      span == "r2sp_aggregate") {
    return 1;
  }
  return -1;
}

struct PhaseBreakdown {
  double share[kNumPhases] = {};
  double unattributed = 0.0;
  int64_t worker_train_spans = 0;
  int64_t dispatch_events = 0;
};

// Reads the complete ("X") spans and dispatch instants out of the Chrome
// trace export and sweeps [begin_us, end_us): every instant is charged to
// the highest-priority active phase, or to `unattributed` when none is.
PhaseBreakdown AttributePhases(const std::string& chrome, double begin_us,
                               double end_us) {
  struct Edge {
    double t;
    int phase;
    int delta;
  };
  std::vector<Edge> edges;
  PhaseBreakdown out;
  const char kSpan[] = "{\"ph\":\"X\",";
  const char kInstant[] = "{\"ph\":\"i\",";
  for (size_t pos = chrome.find("{\"ph\":\""); pos != std::string::npos;
       pos = chrome.find("{\"ph\":\"", pos + 1)) {
    const char* p = chrome.c_str() + pos;
    const bool span = std::strncmp(p, kSpan, sizeof(kSpan) - 1) == 0;
    const bool instant = std::strncmp(p, kInstant, sizeof(kInstant) - 1) == 0;
    if (!span && !instant) continue;
    const char* name = std::strstr(p, "\"name\":\"");
    const char* ts = std::strstr(p, "\"ts\":");
    if (name == nullptr || ts == nullptr) continue;
    name += 8;
    const std::string n(name, std::strcspn(name, "\""));
    if (instant) {
      if (n == "dispatch") ++out.dispatch_events;
      continue;
    }
    const char* dur = std::strstr(p, "\"dur\":");
    if (dur == nullptr) continue;
    const double b = std::strtod(ts + 5, nullptr);
    const double e = b + std::strtod(dur + 6, nullptr);
    if (n == "worker_train") ++out.worker_train_spans;
    const int phase = PhaseOf(n);
    if (phase < 0) continue;
    edges.push_back({std::max(b, begin_us), phase, +1});
    edges.push_back({std::min(std::max(e, begin_us), end_us), phase, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t < b.t;
  });
  int active[kNumPhases] = {};
  double spent[kNumPhases] = {};
  double unattributed = 0.0;
  double t = begin_us;
  auto charge = [&](double until) {
    if (until <= t) return;
    int p = 0;
    while (p < kNumPhases && active[p] == 0) ++p;
    (p < kNumPhases ? spent[p] : unattributed) += until - t;
    t = until;
  };
  for (const Edge& e : edges) {
    charge(std::min(e.t, end_us));
    active[e.phase] += e.delta;
  }
  charge(end_us);
  const double total = end_us - begin_us;
  for (int p = 0; p < kNumPhases; ++p) out.share[p] = spent[p] / total;
  out.unattributed = unattributed / total;
  return out;
}

double CounterValue(const std::vector<obs::MetricSnapshot>& snap,
                    const std::string& name) {
  for (const obs::MetricSnapshot& m : snap) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

double HitRate(const std::vector<obs::MetricSnapshot>& snap,
               const std::string& prefix) {
  const double hits = CounterValue(snap, prefix + ".hits");
  const double misses = CounterValue(snap, prefix + ".misses");
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------------
// nn: per-layer forward/backward throughput.
// ---------------------------------------------------------------------------

// Per-sample training MACs of one layer written from the layer definitions
// (im2col GEMM, dense GEMM, LSTM gate GEMMs with dWh skipped at t = 0);
// cross-checked against nn::AnalyzeTrainingMacs at every timed shape.
nn::LayerMacs OwnMacs(const nn::LayerSpec& layer, const nn::ValueShape& in,
                      int64_t rows_per_sample) {
  nn::LayerMacs m;
  switch (layer.type) {
    case nn::LayerType::kConv2d: {
      const int64_t oh =
          (in.h + 2 * layer.padding - layer.kernel) / layer.stride + 1;
      const int64_t ow =
          (in.w + 2 * layer.padding - layer.kernel) / layer.stride + 1;
      m.forward = oh * ow * layer.out_channels * layer.in_channels *
                  layer.kernel * layer.kernel;
      m.backward = 2 * m.forward;
      break;
    }
    case nn::LayerType::kLinear:
      m.forward = rows_per_sample * layer.out_channels * layer.in_channels;
      m.backward = 2 * m.forward;
      break;
    case nn::LayerType::kLstm: {
      const int64_t t = in.t, h = layer.out_channels, x = layer.in_channels;
      m.forward = t * 4 * h * (x + h);
      m.backward = 2 * t * 4 * h * x + (2 * t - 1) * 4 * h * h;
      break;
    }
    default:
      break;
  }
  return m;
}

struct KindTiming {
  double fwd_macs = 0.0, bwd_macs = 0.0, fwd_s = 0.0, bwd_s = 0.0;
};

// Times Forward and Backward of every Conv2d / Linear / Lstm layer of
// `spec` on a batch of `batch` samples, one lane, and accumulates MACs and
// seconds per layer kind ("conv", "linear", "lstm").
void TimeLayers(const nn::ModelSpec& spec, int64_t batch,
                std::map<std::string, KindTiming>* kinds,
                std::vector<std::string>* failures) {
  nn::ModelAnalysis shapes;
  nn::MacAnalysis macs;
  FEDMP_CHECK(spec.Analyze(&shapes).ok());
  FEDMP_CHECK(nn::AnalyzeTrainingMacs(spec, &macs).ok());
  Rng rng(17);
  int64_t rows_per_sample = 1;
  for (size_t i = 0; i < spec.layers.size(); ++i) {
    const nn::LayerSpec& l = spec.layers[i];
    const nn::ValueShape& in = shapes.layers[i].input;
    if (l.type == nn::LayerType::kTimeFlatten) rows_per_sample = in.t;
    std::unique_ptr<nn::Layer> layer;
    std::vector<int64_t> x_shape;
    std::string kind;
    switch (l.type) {
      case nn::LayerType::kConv2d:
        layer = std::make_unique<nn::Conv2d>(l.in_channels, l.out_channels,
                                             l.kernel, l.stride, l.padding,
                                             l.bias, rng);
        x_shape = {batch, in.c, in.h, in.w};
        kind = "conv";
        break;
      case nn::LayerType::kLinear:
        layer = std::make_unique<nn::Linear>(l.in_channels, l.out_channels,
                                             l.bias, rng);
        x_shape = {batch * rows_per_sample, l.in_channels};
        kind = "linear";
        break;
      case nn::LayerType::kLstm:
        layer = std::make_unique<nn::Lstm>(l.in_channels, l.out_channels,
                                           rng);
        x_shape = {batch, in.t, l.in_channels};
        kind = "lstm";
        break;
      default:
        continue;
    }
    const nn::LayerMacs own = OwnMacs(l, in, rows_per_sample);
    if (own.forward != macs.layers[i].forward ||
        own.backward != macs.layers[i].backward) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "MACs of %s layer %zu: formula %lld/%lld, "
                    "AnalyzeTrainingMacs %lld/%lld",
                    kind.c_str(), i, static_cast<long long>(own.forward),
                    static_cast<long long>(own.backward),
                    static_cast<long long>(macs.layers[i].forward),
                    static_cast<long long>(macs.layers[i].backward));
      failures->push_back(buf);
    }
    nn::Tensor x(x_shape);
    for (int64_t k = 0; k < x.numel(); ++k) {
      x.data()[k] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    nn::Tensor y = layer->Forward(x, true);
    nn::Tensor dy(y.shape());
    dy.Fill(0.01f);
    const double fwd_s = PerCall([&] { y = layer->Forward(x, true); });
    // Backward needs the activations of a Forward on the same batch; only
    // the Backward half of each pair is timed.
    double bwd_total = 0.0;
    int64_t bwd_calls = 0;
    PerCall([&] {
      layer->Forward(x, true);
      bwd_total += TimeSeconds([&] { layer->Backward(dy); });
      ++bwd_calls;
    });
    KindTiming& k = (*kinds)[kind];
    k.fwd_macs += static_cast<double>(own.forward * batch);
    k.bwd_macs += static_cast<double>(own.backward * batch);
    k.fwd_s += fwd_s;
    k.bwd_s += bwd_total / static_cast<double>(bwd_calls);
  }
}

// GMAC/s per layer kind at pruning ratios 0 and 0.5. A kind the workload's
// model does not have (no LSTM in the CNNs, no convolution in the LSTM) is
// timed at the shapes of the kBench task that has it.
void NnLayerMetrics(const data::FlTask& task, const nn::TensorList& weights,
                    JsonLine* out, std::vector<std::string>* failures) {
  const data::FlTask cnn_task =
      data::MakeCnnMnistTask(data::TaskScale::kBench, 1);
  const data::FlTask lstm_task =
      data::MakeLstmPtbTask(data::TaskScale::kBench, 1);
  for (const double ratio : {0.0, 0.5}) {
    auto spec_at = [&](const data::FlTask& t, const nn::TensorList& w) {
      if (ratio == 0.0) return t.model;
      auto sub = pruning::PruneByRatio(t.model, w, ratio);
      FEDMP_CHECK(sub.ok()) << sub.status();
      return sub->spec;
    };
    std::map<std::string, KindTiming> kinds;
    TimeLayers(spec_at(task, weights), task.batch_size, &kinds, failures);
    for (const auto& [kind, donor] :
         {std::pair{"conv", &cnn_task}, std::pair{"lstm", &lstm_task}}) {
      if (kinds.count(kind) != 0) continue;
      std::map<std::string, KindTiming> borrowed;
      TimeLayers(spec_at(*donor,
                         nn::BuildModelOrDie(donor->model, 3)->GetWeights()),
                 donor->batch_size, &borrowed, failures);
      kinds[kind] = borrowed[kind];
    }
    const std::string suffix = ratio == 0.0 ? ".r0" : ".r50";
    for (const char* kind : {"conv", "linear", "lstm"}) {
      const KindTiming& k = kinds[kind];
      const std::string base = std::string("nn.") + kind;
      out->Num(base + ".fwd_gmac_per_s" + suffix, k.fwd_macs / k.fwd_s / 1e9);
      out->Num(base + ".bwd_gmac_per_s" + suffix, k.bwd_macs / k.bwd_s / 1e9);
    }
  }
}

fl::LocalTrainOptions LocalOptions(const data::FlTask& task) {
  fl::LocalTrainOptions local;
  local.tau = task.local_iterations;
  local.batch_size = task.batch_size;
  local.learning_rate = task.learning_rate;
  local.momentum = task.momentum;
  local.weight_decay = task.weight_decay;
  local.clip_norm = task.is_language_model ? 5.0 : 0.0;
  local.is_language_model = task.is_language_model;
  return local;
}

// ---------------------------------------------------------------------------
// fl / pruning: one synthetic R2SP round at the workload's shapes.
// ---------------------------------------------------------------------------

constexpr int kRoundUpdates = 10;

R2spRound MakeR2spRound(const data::FlTask& task,
                        const nn::TensorList& global,
                        const pruning::ImportanceRanking& ranking,
                        uint64_t seed) {
  R2spRound round;
  const data::StreamingIidPartition view(task.train.size(), kRoundUpdates,
                                         seed);
  const auto fleet = edge::MakeHeterogeneousWorkers(
      edge::HeterogeneityLevel::kMedium, seed);
  for (int k = 0; k < kRoundUpdates; ++k) {
    // Every ratio is positive, so the units below the smallest ratio's cut
    // are pruned by every worker.
    const double ratio = 0.1 + 0.05 * k;
    auto sub = pruning::PruneByRatioRanked(task.model, global, ranking, ratio);
    FEDMP_CHECK(sub.ok()) << sub.status();
    fl::Worker worker(k, &task.train, view.Shard(k),
                      fleet[static_cast<size_t>(k)], seed + k);
    round.trained.push_back(
        worker.LocalTrain(sub->spec, sub->weights, LocalOptions(task))
            .weights);
    round.subs.push_back(std::move(sub).value());
  }
  return round;
}

nn::TensorList Aggregate(const data::FlTask& task,
                         const nn::TensorList& global,
                         const std::vector<fl::SubModelUpdate>& updates) {
  auto agg = fl::AggregateSubModels(task.model, global, updates,
                                    fl::SyncScheme::kR2SP);
  FEDMP_CHECK(agg.ok()) << agg.status();
  return std::move(agg).value();
}

// A task of the workload's kind generated from a fixed seed: the inputs of
// the synthetic R2SP round, so that a check failing on it fails on every run
// whatever the run seed.
constexpr uint64_t kCheckSeed = 20220501;

data::FlTask MakeCheckTask(WorkloadId id) {
  switch (id) {
    case WorkloadId::kHotpathCnn10:
      return data::MakeCnnMnistTask(data::TaskScale::kBench, kCheckSeed);
    case WorkloadId::kFleet100k:
      return data::MakeScaleCnnTask(kRoundUpdates, kCheckSeed);
    case WorkloadId::kAsyncLstm10:
      break;
  }
  return data::MakeLstmPtbTask(data::TaskScale::kBench, kCheckSeed);
}

void FlAndPruningMetrics(const Setup& setup, uint64_t seed, JsonLine* out,
                         std::vector<std::string>* failures,
                         std::vector<std::string>* known_faults) {
  const data::FlTask& task = setup.task;
  const nn::TensorList& global = setup.server().weights();
  const fl::LocalTrainOptions local = LocalOptions(task);

  pruning::ImportanceRanking ranking;
  out->Num("pruning.rank_ms", 1e3 * PerCall([&] {
    ranking = pruning::RankUnits(task.model, global);
  }));
  pruning::SubModel half;
  out->Num("pruning.extract_us", 1e6 * PerCall([&] {
    half = pruning::PruneByRatioRanked(task.model, global, ranking, 0.5)
               .value();
  }));
  nn::TensorList recovered;
  out->Num("pruning.recover_us", 1e6 * PerCall([&] {
    FEDMP_CHECK(pruning::RecoverToFullInto(task.model, half.weights,
                                           half.mask, &recovered)
                    .ok());
  }));
  const fl::ResourceParams params = fl::MakeResourceParams(task.model, global);
  out->Num("fl.ledger_us", 1e6 * PerCall([&] {
    fl::ComputeWorkerResources(params, half.spec, half.mask,
                               task.batch_size * task.local_iterations, 0.0,
                               false);
  }));

  const data::StreamingIidPartition view(task.train.size(), setup.num_workers,
                                         seed);
  int64_t next_worker = 0;
  std::vector<int64_t> shard;
  out->Num("data.shard_us", 1e6 * PerCall([&] {
    shard = view.Shard(next_worker);
    next_worker = (next_worker + 7919) % setup.num_workers;
  }));
  data::DataLoader loader(&task.train, view.Shard(0), task.batch_size, true,
                          seed);
  nn::Tensor batch;
  std::vector<int64_t> labels;
  out->Num("data.next_batch_us", 1e6 * PerCall([&] {
    loader.NextBatch(&batch, &labels);
  }));

  const auto fleet = edge::MakeHeterogeneousWorkers(
      edge::HeterogeneityLevel::kMedium, seed);
  Rng rng(seed);
  const edge::DeviceRoundSample sample = edge::SampleRound(fleet[0], rng);
  out->Num("edge.round_cost_us", 1e6 * PerCall([&] {
    edge::EstimateRoundCost(half.spec, task.local_iterations,
                            task.batch_size, sample);
  }));

  fl::Worker worker(0, &task.train, view.Shard(0), fleet[0], seed);
  out->Num("fl.local_train_ms", 1e3 * PerCall([&] {
    worker.LocalTrain(task.model, global, local);
  }));
  out->Num("fl.evaluate_ms", 1e3 * PerCall([&] {
    setup.server().Evaluate(task.test, 50, task.is_language_model);
  }));

  nn::Sgd sgd(nn::SgdOptions{task.learning_rate, task.momentum,
                             task.weight_decay, 0.0, 0.0});
  auto model = nn::BuildModelOrDie(task.model, seed);
  const std::vector<nn::Parameter*> model_params = model->Params();
  out->Num("nn.sgd_step_us", 1e6 * PerCall([&] { sgd.Step(model_params); }));

  // The aggregation layer against the benchmark's own naive R2SP.
  const data::FlTask check_task = MakeCheckTask(setup.id);
  const nn::TensorList check_global =
      nn::BuildModelOrDie(check_task.model, kCheckSeed)->GetWeights();
  const R2spRound round = MakeR2spRound(
      check_task, check_global,
      pruning::RankUnits(check_task.model, check_global), kCheckSeed);
  const std::vector<fl::SubModelUpdate> updates = round.Updates();
  nn::TensorList aggregate;
  out->Num("fl.aggregate_ms", 1e3 * PerCall([&] {
    aggregate = Aggregate(check_task, check_global, updates);
  }));
  std::string reason =
      CheckR2spMatchesNaive(check_task.model, check_global, updates, aggregate);
  if (!reason.empty()) failures->push_back("AggregateSubModels: " + reason);
  reason =
      CheckPrunedByAllKept(check_task.model, check_global, updates, aggregate);
  if (!reason.empty()) known_faults->push_back("AggregateSubModels: " + reason);

  // Self-test of both checks: the naive reference passes them, and they
  // reject a perturbed aggregate, an aggregate with a participant dropped,
  // and a pruned-by-all unit moved by one ulp.
  const nn::TensorList reference =
      NaiveR2sp(check_task.model, check_global, updates);
  auto naive_check = [&](const nn::TensorList& agg) {
    return CheckR2spMatchesNaive(check_task.model, check_global, updates, agg);
  };
  auto kept_check = [&](const nn::TensorList& agg) {
    return CheckPrunedByAllKept(check_task.model, check_global, updates, agg);
  };
  if (!naive_check(reference).empty() || !kept_check(reference).empty()) {
    failures->push_back("R2SP checks reject the naive reference");
  }
  nn::TensorList perturbed = aggregate;
  perturbed[0].data()[0] += 1e-2f * (1.0f + std::fabs(perturbed[0].data()[0]));
  std::vector<fl::SubModelUpdate> fewer = updates;
  fewer.pop_back();
  nn::TensorList ulp = reference;
  for (nn::Tensor& t : ulp) {
    for (float& v : t.vec()) v = std::nextafter(v, INFINITY);
  }
  const std::pair<const char*, std::string> corrupted[] = {
      {"perturbed aggregate", naive_check(perturbed)},
      {"dropped participant",
       naive_check(Aggregate(check_task, check_global, fewer))},
      {"pruned-by-all unit moved", kept_check(ulp)},
  };
  for (const auto& [name, rejection] : corrupted) {
    if (rejection.empty()) {
      failures->push_back(std::string("R2SP check accepted ") + name);
    }
  }

  // Streamed fold of the same round: per-arrival cost, and the documented
  // contract that it reproduces AggregateSubModels bit for bit.
  nn::TensorList streamed;
  out->Num("fl.stream_fold_us", 1e6 / kRoundUpdates * PerCall([&] {
    fl::StreamingAggregator agg(check_task.model, check_global, kRoundUpdates,
                                fl::SyncScheme::kR2SP, false);
    for (int k = 0; k < kRoundUpdates; ++k) {
      agg.Accumulate(k, round.trained[static_cast<size_t>(k)],
                     round.subs[static_cast<size_t>(k)].mask);
      agg.Admit(k);
    }
    fl::StreamingAggregator::Result result = agg.Finish();
    nn::ScaleLists(result.sum, 1.0f / static_cast<float>(result.participants));
    streamed = std::move(result.sum);
  }));
  if (HashWeights(streamed) != HashWeights(aggregate)) {
    failures->push_back("streamed R2SP fold differs from AggregateSubModels");
  }
}

// bandit: the FedMP strategy planning and observing a whole fleet's round.
void BanditMetrics(const Setup& setup, uint64_t seed, JsonLine* out) {
  const int n = setup.num_workers;
  fl::FedMpStrategy strategy;
  strategy.Initialize(n, seed);
  std::vector<fl::WorkerRoundPlan> plans(static_cast<size_t>(n));
  fl::RoundObservation observation;
  Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    const double comp = rng.Uniform(1.0, 3.0), comm = rng.Uniform(0.5, 2.0);
    observation.comp_times.push_back(comp);
    observation.comm_times.push_back(comm);
    observation.completion_times.push_back(comp + comm);
    observation.delta_losses.push_back(rng.Uniform(0.0, 0.1));
    observation.participated.push_back(true);
  }
  observation.round_time = *std::max_element(
      observation.completion_times.begin(),
      observation.completion_times.end());
  observation.global_delta_loss = 0.05;
  int64_t round = 0;
  double plan_s = 0.0, observe_s = 0.0;
  PerCall([&] {
    plan_s += TimeSeconds([&] { strategy.PlanRound(round, &plans); });
    observe_s +=
        TimeSeconds([&] { strategy.ObserveRound(round, observation); });
    ++round;
  });
  out->Num("bandit.plan_round_ms", 1e3 * plan_s / static_cast<double>(round));
  out->Num("bandit.observe_round_ms",
           1e3 * observe_s / static_cast<double>(round));
}

// common: submit and drain one task on the pool at the workload's lanes.
void PoolMetrics(JsonLine* out) {
  constexpr int kTasks = 256;
  int64_t sink = 0;
  out->Num("common.pool.task_us", 1e6 / kTasks * PerCall([&] {
    TaskSet tasks;
    for (int k = 0; k < kTasks; ++k) tasks.Submit(k, [] {});
    int64_t tag = -1;
    while (tasks.DrainNext(&tag)) sink += tag;
  }));
  (void)sink;
}

}  // namespace

void RunTraced(WorkloadId id, uint64_t seed, int lanes, JsonLine* out,
               std::vector<std::string>* failures,
               std::vector<std::string>* known_faults) {
  // Untraced reference run of the same configuration.
  std::unique_ptr<Setup> plain = MakeSetup(id, seed, lanes);
  fl::RoundLog plain_log;
  const double plain_s = TimeSeconds([&] { plain_log = plain->Run(); });
  const uint64_t plain_hash = HashWeights(plain->server().weights());
  out->Num("fl.trainer_init_ms", 1e3 * plain->trainer_init_s);
  out->Num("data.make_task_ms", 1e3 * plain->make_task_s);
  plain.reset();

  obs::TraceOptions options;
  options.max_events = 8000000;
  obs::Enable(options);
  std::unique_ptr<Setup> traced = MakeSetup(id, seed, lanes);
  fl::RoundLog log;
  const double begin_us = obs::WallNowUs();
  const double traced_s = TimeSeconds([&] { log = traced->Run(); });
  const double end_us = obs::WallNowUs();
  const std::vector<obs::MetricSnapshot> snap = obs::Registry::Get().Snapshot();
  obs::Disable();
  const PhaseBreakdown phases =
      AttributePhases(obs::ChromeTraceJson(), begin_us, end_us);
  obs::ResetForTest();  // frees the buffered events

  if (HashWeights(traced->server().weights()) != plain_hash) {
    failures->push_back("traced run's weights differ from the untraced run");
  }
  const std::string finite = CheckFinite(traced->server().weights());
  if (!finite.empty()) failures->push_back(finite);

  const char* const share_names[kNumPhases] = {
      "trace.evaluate_share", "trace.aggregate_share",
      "trace.rank_units_share", "trace.plan_round_share",
      "trace.worker_train_share"};
  double share_sum = phases.unattributed;
  for (int p = 0; p < kNumPhases; ++p) {
    out->Num(share_names[p], phases.share[p]);
    share_sum += phases.share[p];
  }
  out->Num("trace.unattributed_share", phases.unattributed);
  if (std::fabs(share_sum - 1.0) > 1e-9) {
    failures->push_back("phase shares do not add up to the round wall time");
  }
  out->Num("trace.overhead_ratio", traced_s / plain_s);

  out->Num("nn.pool.hit_rate", HitRate(snap, "nn.pool"));
  out->Num("fl.model_cache.hit_rate", HitRate(snap, "fl.worker.model_cache"));
  out->Num("pruning.plan_cache.hit_rate", HitRate(snap, "pruning.plan_cache"));
  out->Int("fl.updates_dispatched", traced->sync != nullptr
                                        ? phases.worker_train_spans
                                        : phases.dispatch_events);
  out->Int("fl.updates_aggregated", static_cast<int64_t>(CounterValue(
                                        snap, "fl.updates_aggregated")));
  out->Num("fl.final_test_loss",
           log.empty() ? 0.0 : log.records().back().test_loss);

  // 1-lane rerun: the parallel engine's result does not depend on lanes.
  int64_t rounds = static_cast<int64_t>(plain_log.records().size() +
                                        log.records().size());
  if (id != WorkloadId::kFleet100k && lanes > 1) {
    std::unique_ptr<Setup> serial = MakeSetup(id, seed, 1);
    rounds += static_cast<int64_t>(serial->Run().records().size());
    if (HashWeights(serial->server().weights()) != plain_hash) {
      failures->push_back("1-lane rerun's weights differ");
    }
  }
  // Plus the synthetic R2SP round of the aggregation checks.
  out->Int("rounds", rounds + 1);

  // Per-layer timings: one lane, as each worker's kernels run in a round.
  ThreadPool::SetGlobalThreads(1);
  NnLayerMetrics(traced->task, traced->server().weights(), out, failures);
  FlAndPruningMetrics(*traced, seed, out, failures, known_faults);
  BanditMetrics(*traced, seed, out);
  ThreadPool::SetGlobalThreads(lanes);
  PoolMetrics(out);
}

}  // namespace fedmp::perfbench
