// Numeric-kernel microbenchmarks: the flat allocation-free KnnIndex
// (query + batched fill on the scan path, single fills on the k-d tree
// path at the stacking aggregator's serving shape) against the retained
// ReferenceKnnIndex, and the MLP train step on the allocation-free
// ApplyInto path. The committed baseline bench/BENCH_nn.json (see
// bench/run_nn_bench.sh) pins these series; CI's bench smoke reruns them
// through bench/check_regression.py.
//
// Args convention for the BM_KnnQuery / BM_KnnFillBatch series:
// {N records, dim, k}.

#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/knn.h"
#include "nn/knn_reference.h"
#include "nn/mlp.h"

using namespace schemble;

namespace {

constexpr int kFillBatch = 64;

std::vector<std::vector<double>> MakeRecords(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> records(n, std::vector<double>(dim));
  for (auto& r : records) {
    for (double& v : r) v = rng.Normal();
  }
  return records;
}

/// Every other dimension observed; KNN fills the odd ones.
std::vector<bool> AlternatingMask(int dim) {
  std::vector<bool> mask(dim);
  for (int d = 0; d < dim; ++d) mask[d] = (d % 2) == 0;
  return mask;
}

void BM_KnnQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  auto index = KnnIndex::Build(MakeRecords(n, dim, 101)).value();
  const auto points = MakeRecords(kFillBatch, dim, 102);
  const std::vector<bool> mask = AlternatingMask(dim);
  KnnIndex::Workspace ws;
  std::vector<KnnIndex::Neighbor> out;
  size_t i = 0;
  for (auto _ : state) {
    index.QueryInto(points[i], mask, k, &ws, &out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_KnnQuery)
    ->Args({500, 8, 10})
    ->Args({2000, 8, 10})
    ->Args({2000, 16, 10})
    ->Args({8000, 8, 10});

void BM_KnnQueryReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  auto index = ReferenceKnnIndex::Build(MakeRecords(n, dim, 101)).value();
  const auto points = MakeRecords(kFillBatch, dim, 102);
  const std::vector<bool> mask = AlternatingMask(dim);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(points[i], mask, k));
    i = (i + 1) % points.size();
  }
}
BENCHMARK(BM_KnnQueryReference)
    ->Args({500, 8, 10})
    ->Args({2000, 8, 10})
    ->Args({2000, 16, 10})
    ->Args({8000, 8, 10});

// One iteration = one 64-point batch; items/s reports per-point rate. The
// issue bar: the {2000, 8, 10} point must run >= 3x faster than
// BM_KnnFillBatchReference at the same shape.
void BM_KnnFillBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  auto index = KnnIndex::Build(MakeRecords(n, dim, 103)).value();
  const auto points = MakeRecords(kFillBatch, dim, 104);
  const std::vector<bool> mask = AlternatingMask(dim);
  KnnIndex::Workspace ws;
  std::vector<std::vector<double>> outs;
  for (auto _ : state) {
    index.FillMissingBatch(points, mask, k, &ws, &outs);
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(state.iterations() * kFillBatch);
}
BENCHMARK(BM_KnnFillBatch)
    ->Args({500, 8, 10})
    ->Args({2000, 8, 10})
    ->Args({2000, 16, 10})
    ->Args({8000, 8, 10});

void BM_KnnFillBatchReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  auto index = ReferenceKnnIndex::Build(MakeRecords(n, dim, 103)).value();
  const auto points = MakeRecords(kFillBatch, dim, 104);
  const std::vector<bool> mask = AlternatingMask(dim);
  for (auto _ : state) {
    for (const auto& p : points) {
      benchmark::DoNotOptimize(index.FillMissing(p, mask, k));
    }
  }
  state.SetItemsProcessed(state.iterations() * kFillBatch);
}
BENCHMARK(BM_KnnFillBatchReference)
    ->Args({500, 8, 10})
    ->Args({2000, 8, 10})
    ->Args({2000, 16, 10})
    ->Args({8000, 8, 10});

// The stacking aggregator's serving shape (text matching, §VII): 2000
// fill records of three models' 2-class probability outputs, k = 10, one
// row per executed-subset column mask (Arg = SubsetMask 1..6). The index
// is built with all six masks, exactly as Aggregator::Build does, so every
// row runs the k-d tree path. One iteration = 64 single-query
// FillMissingInto calls, the per-completion call the servers make.
constexpr int kServingRecords = 2000;
constexpr int kServingModels = 3;
constexpr int kServingK = 10;

/// Correlated 2-class probability outputs: the models agree on easy
/// queries and scatter on hard ones, like the synthetic tasks' outputs.
std::vector<std::vector<double>> ServingRecords(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> records(n);
  for (auto& r : records) {
    const double logit = 2.0 * rng.Normal();
    for (int k = 0; k < kServingModels; ++k) {
      const double p = 1.0 / (1.0 + std::exp(-(logit + rng.Normal())));
      r.push_back(p);
      r.push_back(1.0 - p);
    }
  }
  return records;
}

std::vector<bool> SubsetColumns(int subset) {
  std::vector<bool> mask(2 * kServingModels, false);
  for (int k = 0; k < kServingModels; ++k) {
    if (subset & (1 << k)) mask[2 * k] = mask[2 * k + 1] = true;
  }
  return mask;
}

void BM_KnnFillServing(benchmark::State& state) {
  std::vector<std::vector<bool>> masks;
  for (int subset = 1; subset < (1 << kServingModels) - 1; ++subset) {
    masks.push_back(SubsetColumns(subset));
  }
  auto index =
      KnnIndex::Build(ServingRecords(kServingRecords, 106), masks).value();
  const auto points = ServingRecords(kFillBatch, 107);
  const std::vector<bool> mask = SubsetColumns(static_cast<int>(state.range(0)));
  KnnIndex::Workspace ws;
  std::vector<double> out;
  for (auto _ : state) {
    for (const auto& p : points) {
      index.FillMissingInto(p, mask, kServingK, &ws, &out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kFillBatch);
  state.counters["tree_share"] = static_cast<double>(ws.stats.tree_queries) /
                                 static_cast<double>(ws.stats.queries);
}
BENCHMARK(BM_KnnFillServing)->DenseRange(1, 6);

void BM_KnnFillServingReference(benchmark::State& state) {
  auto index =
      ReferenceKnnIndex::Build(ServingRecords(kServingRecords, 106)).value();
  const auto points = ServingRecords(kFillBatch, 107);
  const std::vector<bool> mask = SubsetColumns(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& p : points) {
      benchmark::DoNotOptimize(index.FillMissing(p, mask, kServingK));
    }
  }
  state.SetItemsProcessed(state.iterations() * kFillBatch);
}
BENCHMARK(BM_KnnFillServingReference)->DenseRange(1, 6);

// One iteration = ForwardCached + Backward + SGD on one example, the unit
// of work every predictor/meta-classifier epoch repeats. Args: {input,
// hidden, output} widths (single hidden layer, the library's shape).
void BM_MlpTrainStep(benchmark::State& state) {
  MlpConfig config;
  config.layer_sizes = {static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(1)),
                        static_cast<int>(state.range(2))};
  Mlp mlp(config, 7);
  MlpForwardCache cache;
  MlpGradients grads = mlp.InitGradients();
  Rng rng(105);
  std::vector<double> input(config.layer_sizes.front());
  for (double& v : input) v = rng.Normal();
  std::vector<double> dloss(config.layer_sizes.back());
  for (auto _ : state) {
    const std::vector<double>& out = mlp.ForwardCached(input, &cache);
    for (size_t i = 0; i < dloss.size(); ++i) dloss[i] = out[i] - 0.5;
    grads.Reset();
    mlp.Backward(cache, dloss, &grads);
    mlp.ApplySgd(grads, 1e-3);
    benchmark::DoNotOptimize(mlp.weights().data());
  }
}
BENCHMARK(BM_MlpTrainStep)
    ->Args({16, 32, 3})
    ->Args({18, 64, 8})
    ->Args({64, 128, 8});

}  // namespace

BENCHMARK_MAIN();
