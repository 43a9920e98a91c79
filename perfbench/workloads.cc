#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/mem_info.h"
#include "data/partition.h"
#include "fl/strategies/fedmp_strategy.h"
#include "perfbench.h"

namespace fedmp::perfbench {

namespace {

constexpr int kFleetWorkers = 100000;

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  if (name == "hotpath-cnn10") {
    *out = WorkloadId::kHotpathCnn10;
  } else if (name == "fleet-100k") {
    *out = WorkloadId::kFleet100k;
  } else if (name == "async-lstm10") {
    *out = WorkloadId::kAsyncLstm10;
  } else {
    return false;
  }
  return true;
}

int64_t WorkloadRounds(WorkloadId id) {
  // hotpath-cnn10: every seed must reach the task's 0.90 accuracy target;
  // at 30 rounds about one seed in 80 did not, at 50 none of ~200 tried.
  switch (id) {
    case WorkloadId::kHotpathCnn10: return 50;
    case WorkloadId::kFleet100k: return 1;
    case WorkloadId::kAsyncLstm10: return 20;
  }
  return 0;
}

double TimeSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t HashWeights(const nn::TensorList& weights) {
  uint64_t h = 1469598103934665603ULL;
  for (const nn::Tensor& t : weights) {
    for (const float v : t.vec()) {
      uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFu;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

const fl::ParameterServer& Setup::server() const {
  return sync != nullptr ? sync->server() : async->server();
}

fl::RoundLog Setup::Run() {
  return sync != nullptr ? sync->Run() : async->Run();
}

std::unique_ptr<Setup> MakeSetup(WorkloadId id, uint64_t seed, int lanes) {
  auto s = std::make_unique<Setup>();
  s->id = id;
  s->make_task_s = TimeSeconds([&] {
    switch (id) {
      case WorkloadId::kHotpathCnn10:
        s->task = data::MakeCnnMnistTask(data::TaskScale::kBench, seed);
        break;
      case WorkloadId::kFleet100k:
        s->task = data::MakeScaleCnnTask(kFleetWorkers, seed);
        break;
      case WorkloadId::kAsyncLstm10:
        s->task = data::MakeLstmPtbTask(data::TaskScale::kBench, seed);
        break;
    }
  });
  s->rss_before_trainer = PeakRssBytes();

  fl::TrainerOptions opt;
  opt.max_rounds = WorkloadRounds(id);
  opt.seed = seed;
  opt.num_threads = lanes;
  s->trainer_init_s = TimeSeconds([&] {
    if (id == WorkloadId::kFleet100k) {
      // Every worker arrives (no deadline), so participants == workers is a
      // property of the round; the scale knobs are the ones the streaming
      // round was built for (windowed submission, fog tier, sharded PS at
      // its automatic count).
      opt.deadline.enabled = false;
      opt.scale.fog_fan_out = 32;
      opt.scale.max_inflight = 64;
      s->num_workers = kFleetWorkers;
      auto view = std::make_shared<const data::StreamingIidPartition>(
          s->task.train.size(), kFleetWorkers, seed ^ 0xBEEFULL);
      s->sync = std::make_unique<fl::Trainer>(
          &s->task, edge::MakeHalfAHalfB(kFleetWorkers, seed),
          std::move(view), std::make_unique<fl::FedMpStrategy>(), opt);
      return;
    }
    std::vector<edge::DeviceProfile> fleet = edge::MakeHeterogeneousWorkers(
        edge::HeterogeneityLevel::kMedium, seed);
    s->num_workers = static_cast<int>(fleet.size());
    Rng rng(seed ^ 0xDA7AULL);
    data::Partition partition =
        data::PartitionIid(s->task.train.size(), s->num_workers, rng);
    if (id == WorkloadId::kHotpathCnn10) {
      s->sync = std::make_unique<fl::Trainer>(
          &s->task, std::move(fleet), std::move(partition),
          std::make_unique<fl::FedMpStrategy>(), opt);
      return;
    }
    fl::AsyncTrainerOptions async_opt;
    async_opt.base = opt;
    s->async_m = async_opt.m;
    s->async = std::make_unique<fl::AsyncTrainer>(
        &s->task, std::move(fleet), std::move(partition),
        std::make_unique<fl::FedMpStrategy>(), async_opt);
  });
  return s;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

JsonLine& JsonLine::Num(const std::string& key, double value) {
  char buf[40];
  // %.17g keeps every digit; non-finite values become null (invalid JSON
  // otherwise), which the harness treats as a failed measurement.
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonLine& JsonLine::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonLine& JsonLine::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonLine& JsonLine::StrList(const std::string& key,
                            const std::vector<std::string>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ", ";
    list += Quote(values[i]);
  }
  fields_.emplace_back(key, list + "]");
  return *this;
}

std::string JsonLine::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace fedmp::perfbench
