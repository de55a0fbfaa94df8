#include "core/aggregation.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/prob.h"

namespace schemble {

std::vector<double> Aggregator::ConcatOutputs(const Query& query) const {
  std::vector<double> concat;
  concat.reserve(task_->num_models() * task_->output_dim());
  for (int k = 0; k < task_->num_models(); ++k) {
    const std::span<const double> mo = query.model_output(k);
    concat.insert(concat.end(), mo.begin(), mo.end());
  }
  return concat;
}

Result<Aggregator> Aggregator::Build(const SyntheticTask& task,
                                     const std::vector<Query>& history,
                                     const AggregatorConfig& config) {
  Aggregator agg(&task, config);
  if (config.kind != AggregationKind::kStacking) return agg;

  if (task.spec().type != TaskType::kClassification) {
    return Status::InvalidArgument(
        "stacking aggregation is implemented for classification tasks");
  }
  if (history.empty()) {
    return Status::InvalidArgument("stacking needs history data");
  }
  if (config.knn_k <= 0) {
    return Status::InvalidArgument("stacking needs knn_k > 0");
  }

  // KNN fill index over historical full-output records.
  const int records =
      std::min<int>(config.max_fill_records, static_cast<int>(history.size()));
  std::vector<std::vector<double>> fill_records;
  fill_records.reserve(records);
  for (int i = 0; i < records; ++i) {
    fill_records.push_back(agg.ConcatOutputs(history[i]));
  }
  // Index the observed columns of every partial executed subset: those
  // are the only masks StackInto ever fills with.
  const int dim = task.output_dim();
  const SubsetMask full = FullMask(task.num_models());
  std::vector<std::vector<bool>> subset_masks;
  for (SubsetMask subset = 1; subset < full; ++subset) {
    std::vector<bool>& mask = subset_masks.emplace_back(
        static_cast<size_t>(task.num_models()) * dim, false);
    for (int k = 0; k < task.num_models(); ++k) {
      if (!(subset & (SubsetMask{1} << k))) continue;
      std::fill_n(mask.begin() + k * dim, dim, true);
    }
  }
  auto index = KnnIndex::Build(std::move(fill_records), subset_masks);
  if (!index.ok()) return index.status();
  agg.fill_index_ = std::make_unique<KnnIndex>(std::move(index).value());

  // Meta-classifier trained on full outputs against the ensemble decision.
  std::vector<std::vector<double>> inputs;
  std::vector<int> labels;
  inputs.reserve(history.size());
  labels.reserve(history.size());
  for (const Query& q : history) {
    inputs.push_back(agg.ConcatOutputs(q));
    labels.push_back(Argmax(q.ensemble_output()));
  }
  agg.meta_ = std::make_unique<SoftmaxRegression>(
      task.num_models() * task.output_dim(), task.output_dim(), config.seed);
  TrainerOptions trainer;
  trainer.epochs = 30;
  Rng rng(HashSeed("stacking-train", config.seed));
  agg.meta_->Train(inputs, labels, trainer, rng);
  return agg;
}

void Aggregator::VoteInto(const Query& query, SubsetMask executed,
                          std::vector<double>* out) const {
  // Missing models are simply excluded from the vote; weights follow the
  // ensemble weights.
  out->assign(task_->output_dim(), 0.0);
  const std::vector<double>& weights = task_->ensemble_weights();
  for (int k = 0; k < task_->num_models(); ++k) {
    if (!(executed & (SubsetMask{1} << k))) continue;
    (*out)[Argmax(query.model_output(k))] += weights[k];
  }
  NormalizeInPlace(*out);
}

void Aggregator::AverageInto(const Query& query, SubsetMask executed,
                             Workspace* ws, std::vector<double>* out) const {
  SubsetModelsInto(executed, &ws->subset);
  task_->AggregateSubsetInto(query, ws->subset, out);
}

void Aggregator::BuildStackInput(const Query& query, SubsetMask executed,
                                 Workspace* ws,
                                 std::vector<double>* concat) const {
  const int dim = task_->output_dim();
  const size_t total = static_cast<size_t>(task_->num_models()) * dim;
  concat->assign(total, 0.0);
  ws->mask.assign(total, false);
  for (int k = 0; k < task_->num_models(); ++k) {
    if (!(executed & (SubsetMask{1} << k))) continue;
    const std::span<const double> mo = query.model_output(k);
    for (int d = 0; d < dim; ++d) {
      (*concat)[k * dim + d] = mo[d];
      ws->mask[k * dim + d] = true;
    }
  }
}

void Aggregator::StackInto(const Query& query, SubsetMask executed,
                           Workspace* ws, std::vector<double>* out) const {
  BuildStackInput(query, executed, ws, &ws->concat);
  if (executed != FullMask(task_->num_models())) {
    // In-place fill: FillMissingInto only overwrites masked-out entries.
    fill_index_->FillMissingInto(ws->concat, ws->mask, config_.knn_k,
                                 &ws->knn, &ws->concat);
  }
  meta_->PredictProbaInto(ws->concat, &ws->meta, out);
}

void Aggregator::AggregateInto(const Query& query, SubsetMask executed,
                               Workspace* ws, std::vector<double>* out) const {
  SCHEMBLE_CHECK_NE(executed, 0u);
  SCHEMBLE_CHECK(ws != nullptr && out != nullptr);
  switch (config_.kind) {
    case AggregationKind::kVoting:
      VoteInto(query, executed, out);
      return;
    case AggregationKind::kWeightedAverage:
      AverageInto(query, executed, ws, out);
      return;
    case AggregationKind::kStacking:
      StackInto(query, executed, ws, out);
      return;
  }
  AverageInto(query, executed, ws, out);
}

std::vector<double> Aggregator::Aggregate(const Query& query,
                                          SubsetMask executed) const {
  // Per-thread scratch keeps the historical convenience signature
  // allocation-free (beyond the returned vector) for concurrent completion
  // callbacks.
  thread_local Workspace ws;
  std::vector<double> out;
  AggregateInto(query, executed, &ws, &out);
  return out;
}

void Aggregator::AggregateBatch(const std::vector<Query>& queries,
                                SubsetMask executed, Workspace* ws,
                                std::vector<std::vector<double>>* outs) const {
  SCHEMBLE_CHECK_NE(executed, 0u);
  SCHEMBLE_CHECK(ws != nullptr && outs != nullptr);
  outs->resize(queries.size());
  if (config_.kind == AggregationKind::kStacking &&
      executed != FullMask(task_->num_models())) {
    // Shared-mask imputation: stage every query's concat row, fill them all
    // in one FillMissingBatch sweep (mask unpacked once), then run the
    // meta-classifier over the filled rows.
    ws->batch_concat.resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      BuildStackInput(queries[i], executed, ws, &ws->batch_concat[i]);
    }
    fill_index_->FillMissingBatch(ws->batch_concat, ws->mask, config_.knn_k,
                                  &ws->knn, &ws->batch_concat);
    for (size_t i = 0; i < queries.size(); ++i) {
      meta_->PredictProbaInto(ws->batch_concat[i], &ws->meta, &(*outs)[i]);
    }
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    AggregateInto(queries[i], executed, ws, &(*outs)[i]);
  }
}

}  // namespace schemble
