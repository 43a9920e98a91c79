#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nn/tensor_ops.h"
#include "perfbench.h"
#include "pruning/structured_pruner.h"

namespace fedmp::perfbench {

namespace {

std::string Fmt(const char* format, double a, double b) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

// Dense wire volume of one round: every worker downloads and uploads the
// full float32 model.
double DenseRoundBytes(int64_t num_params, int64_t workers) {
  return 2.0 * 4.0 * static_cast<double>(num_params) *
         static_cast<double>(workers);
}

// For every parameter coordinate, whether the update's sub-model carries it.
// Written from TensorSlice's documented meaning (dim0 = output-unit rows,
// dim1 = input-unit columns, empty = all, trailing axes whole), not from the
// pruner's gather/scatter kernels.
std::vector<std::vector<uint8_t>> CoveredCoords(
    const nn::ModelSpec& spec, const nn::TensorList& global,
    const pruning::PruneMask& mask, const nn::TensorList* sub,
    nn::TensorList* scatter_into) {
  auto plan = pruning::BuildPrunePlan(spec, mask);
  FEDMP_CHECK(plan.ok()) << plan.status();
  std::vector<std::vector<uint8_t>> covered(global.size());
  for (size_t p = 0; p < global.size(); ++p) {
    const pruning::TensorSlice& slice = plan->slices[p];
    const std::vector<int64_t>& full = slice.full_shape;
    const int64_t d0 = full[0];
    const int64_t d1 = full.size() >= 2 ? full[1] : 1;
    int64_t inner = 1;
    for (size_t i = 2; i < full.size(); ++i) inner *= full[i];
    const int64_t s0 =
        slice.dim0.empty() ? d0 : static_cast<int64_t>(slice.dim0.size());
    const int64_t s1 =
        slice.dim1.empty() ? d1 : static_cast<int64_t>(slice.dim1.size());
    covered[p].assign(static_cast<size_t>(global[p].numel()), 0);
    for (int64_t i0 = 0; i0 < s0; ++i0) {
      const int64_t f0 = slice.dim0.empty() ? i0 : slice.dim0[i0];
      for (int64_t i1 = 0; i1 < s1; ++i1) {
        const int64_t f1 = slice.dim1.empty() ? i1 : slice.dim1[i1];
        for (int64_t k = 0; k < inner; ++k) {
          const int64_t f = (f0 * d1 + f1) * inner + k;
          covered[p][static_cast<size_t>(f)] = 1;
          if (scatter_into != nullptr) {
            (*scatter_into)[p].data()[f] =
                (*sub)[p].data()[(i0 * s1 + i1) * inner + k];
          }
        }
      }
    }
  }
  return covered;
}

}  // namespace

std::string CheckFinite(const nn::TensorList& weights) {
  return nn::AllFiniteList(weights) ? "" : "global weights are not finite";
}

std::string CheckParticipants(const fl::RoundLog& log, int64_t expected) {
  for (const fl::RoundRecord& r : log.records()) {
    if (r.participants != expected) {
      return Fmt("round aggregated %.0f updates, expected %.0f",
                 static_cast<double>(r.participants),
                 static_cast<double>(expected));
    }
  }
  return log.empty() ? "no rounds completed" : "";
}

std::string CheckAccuracyReached(const fl::RoundLog& log, double target) {
  double best = -1.0;
  for (const fl::RoundRecord& r : log.records()) {
    best = std::max(best, r.test_accuracy);
  }
  return best >= target
             ? ""
             : Fmt("best test accuracy %.4f below target %.2f", best, target);
}

std::string CheckWireBelowDense(const fl::RoundLog& log, int64_t num_params,
                                int64_t workers) {
  const double dense = DenseRoundBytes(num_params, workers);
  for (const fl::RoundRecord& r : log.records()) {
    const double wire = static_cast<double>(r.bytes_up + r.bytes_down);
    if (!(wire > 0.0 && wire < dense)) {
      return Fmt("round wire bytes %.0f not in (0, dense %.0f)", wire, dense);
    }
  }
  return log.empty() ? "no rounds completed" : "";
}

std::string CheckRssBelowNaive(int64_t rss_delta_bytes, int64_t num_params,
                               int64_t workers) {
  // Naive engine: every worker's model plus its recovered upload live at
  // once — the same per-fleet volume as the dense wire traffic.
  const double naive = DenseRoundBytes(num_params, workers);
  return static_cast<double>(rss_delta_bytes) < naive
             ? ""
             : Fmt("peak RSS delta %.0f B not below naive %.0f B",
                   static_cast<double>(rss_delta_bytes), naive);
}

std::string CheckPerplexity(double final_ppl, double initial_ppl,
                            int64_t vocab) {
  if (!(final_ppl < static_cast<double>(vocab))) {
    return Fmt("final perplexity %.3f not below vocabulary %.0f", final_ppl,
               static_cast<double>(vocab));
  }
  if (!(final_ppl < initial_ppl)) {
    return Fmt("final perplexity %.3f not below initial %.3f", final_ppl,
               initial_ppl);
  }
  return "";
}

std::vector<fl::SubModelUpdate> R2spRound::Updates() const {
  std::vector<fl::SubModelUpdate> updates(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    updates[i] = fl::SubModelUpdate{&subs[i].mask, &trained[i]};
  }
  return updates;
}

nn::TensorList NaiveR2sp(const nn::ModelSpec& spec,
                         const nn::TensorList& global,
                         const std::vector<fl::SubModelUpdate>& updates) {
  std::vector<std::vector<double>> sum(global.size());
  for (size_t p = 0; p < global.size(); ++p) {
    sum[p].assign(static_cast<size_t>(global[p].numel()), 0.0);
  }
  int participants = 0;
  for (const fl::SubModelUpdate& u : updates) {
    if (u.is_hole()) continue;
    ++participants;
    // recover(sub) + residual(global): the global model with the sub-model's
    // coordinates overwritten by its trained values.
    nn::TensorList contribution = global;
    CoveredCoords(spec, global, *u.mask, u.weights, &contribution);
    for (size_t p = 0; p < global.size(); ++p) {
      for (int64_t i = 0; i < global[p].numel(); ++i) {
        sum[p][static_cast<size_t>(i)] += contribution[p].data()[i];
      }
    }
  }
  nn::TensorList out = global;
  for (size_t p = 0; p < global.size(); ++p) {
    for (int64_t i = 0; i < global[p].numel(); ++i) {
      out[p].data()[i] =
          static_cast<float>(sum[p][static_cast<size_t>(i)] / participants);
    }
  }
  return out;
}

std::string CheckR2spMatchesNaive(
    const nn::ModelSpec& spec, const nn::TensorList& global,
    const std::vector<fl::SubModelUpdate>& updates,
    const nn::TensorList& aggregate) {
  if (!nn::SameShapes(aggregate, global)) return "aggregate has wrong shapes";
  const nn::TensorList reference = NaiveR2sp(spec, global, updates);
  for (size_t p = 0; p < global.size(); ++p) {
    for (int64_t i = 0; i < global[p].numel(); ++i) {
      const float a = aggregate[p].data()[i];
      const float r = reference[p].data()[i];
      if (!(std::fabs(a - r) <= 1e-5f + 1e-4f * std::fabs(r))) {
        return Fmt("aggregate %.9g differs from naive R2SP %.9g", a, r);
      }
    }
  }
  return "";
}

std::string CheckPrunedByAllKept(
    const nn::ModelSpec& spec, const nn::TensorList& global,
    const std::vector<fl::SubModelUpdate>& updates,
    const nn::TensorList& aggregate) {
  if (!nn::SameShapes(aggregate, global)) return "aggregate has wrong shapes";
  std::vector<std::vector<uint8_t>> any(global.size());
  for (size_t p = 0; p < global.size(); ++p) {
    any[p].assign(static_cast<size_t>(global[p].numel()), 0);
  }
  for (const fl::SubModelUpdate& u : updates) {
    if (u.is_hole()) continue;
    const auto covered = CoveredCoords(spec, global, *u.mask, nullptr, nullptr);
    for (size_t p = 0; p < global.size(); ++p) {
      for (size_t i = 0; i < covered[p].size(); ++i) any[p][i] |= covered[p][i];
    }
  }
  int64_t pruned_by_all = 0, moved = 0;
  double first_from = 0.0, first_to = 0.0;
  for (size_t p = 0; p < global.size(); ++p) {
    for (int64_t i = 0; i < global[p].numel(); ++i) {
      if (any[p][static_cast<size_t>(i)] != 0) continue;
      ++pruned_by_all;
      if (aggregate[p].data()[i] != global[p].data()[i]) {
        if (moved++ == 0) {
          first_from = global[p].data()[i];
          first_to = aggregate[p].data()[i];
        }
      }
    }
  }
  if (pruned_by_all == 0) return "no coordinate is pruned by every worker";
  if (moved == 0) return "";
  return Fmt("units pruned by every worker moved (first: %.9g -> %.9g)",
             first_from, first_to) +
         " in " + std::to_string(moved) + " of " +
         std::to_string(pruned_by_all) + " coordinates";
}

std::vector<std::string> SelfTestChecks(const Setup& setup,
                                        const fl::RoundLog& log) {
  std::vector<std::string> missed;
  auto expect_reject = [&](const std::string& reason,
                           const std::string& name) {
    if (reason.empty()) missed.push_back(name);
  };
  const nn::TensorList& weights = setup.server().weights();

  nn::TensorList nan_weights = weights;
  nan_weights.back().data()[0] = std::nanf("");
  expect_reject(CheckFinite(nan_weights), "non-finite weight");

  if (!log.empty()) {
    fl::RoundLog dropped;
    for (fl::RoundRecord r : log.records()) {
      --r.participants;
      dropped.Add(r);
    }
    const int64_t expected = setup.async_m > 0 ? setup.async_m
                                               : setup.num_workers;
    expect_reject(CheckParticipants(dropped, expected), "dropped participant");

    fl::RoundLog dense;
    for (fl::RoundRecord r : log.records()) {
      r.bytes_up = static_cast<int64_t>(
          DenseRoundBytes(setup.task.model.NumParams(), setup.num_workers));
      dense.Add(r);
    }
    expect_reject(CheckWireBelowDense(dense, setup.task.model.NumParams(),
                                      setup.num_workers),
                  "dense wire volume");
  }
  expect_reject(CheckRssBelowNaive(static_cast<int64_t>(DenseRoundBytes(
                                       setup.task.model.NumParams(),
                                       setup.num_workers)),
                                   setup.task.model.NumParams(),
                                   setup.num_workers),
                "naive memory");
  if (!log.empty()) {
    fl::RoundLog low;
    for (fl::RoundRecord r : log.records()) {
      r.test_accuracy = std::min(r.test_accuracy, 0.5);
      low.Add(r);
    }
    expect_reject(CheckAccuracyReached(low, 0.9), "accuracy below target");
  }
  expect_reject(CheckPerplexity(41.0, 50.0, 40), "perplexity above vocabulary");
  expect_reject(CheckPerplexity(20.0, 19.0, 40), "perplexity not improved");
  expect_reject(CheckPerplexity(std::nan(""), 19.0, 40),
                "non-finite perplexity");
  return missed;
}

}  // namespace fedmp::perfbench
