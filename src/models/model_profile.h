#ifndef SCHEMBLE_MODELS_MODEL_PROFILE_H_
#define SCHEMBLE_MODELS_MODEL_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simcore/simulation.h"

namespace schemble {

/// Batch latency curve of one base model: a batched execution of n
/// compatible tasks costs a fixed base (weight loading, kernel launch) plus
/// a full marginal cost for the first item and a coalesced fraction of the
/// marginal cost for every further item:
///
///   ServiceUs(n) = base_us + marginal_us * (1 + coalescing * (n - 1))
///
/// Calibrated from a per-task latency so ServiceUs(1) == latency_us exactly
/// (bit-identical to unbatched execution at batch size 1). `coalescing` in
/// (0, 1]: 1.0 means no batching benefit, small values approach the fixed
/// cost of a single item. Batches never exceed `max_batch` items.
struct BatchLatencyModel {
  SimTime base_us = 0;
  SimTime marginal_us = 0;
  double coalescing = 0.3;
  int max_batch = 16;

  /// Splits `latency_us` into base + marginal so that ServiceUs(1) is
  /// exactly latency_us (integer-safe: marginal absorbs the remainder).
  static BatchLatencyModel FromLatency(SimTime latency_us,
                                       double base_fraction,
                                       double coalescing, int max_batch);

  /// Service time of one batched execution of n tasks (n >= 1).
  SimTime ServiceUs(int n) const;

  /// Total service time to drain `queued` tasks in max_batch-sized
  /// executions (the batch-aware replacement for queued * latency_us).
  SimTime BacklogUs(int64_t queued) const;
};

/// Static description of one synthetic base model: everything the serving
/// stack and the output generator need to stand in for a real deep model.
///
/// The accuracy pair (base_accuracy, hard_accuracy) defines a per-difficulty
/// correctness curve: on the easiest inputs the model matches the true label
/// with probability base_accuracy, decaying linearly to hard_accuracy on the
/// hardest. `overconfidence` is the model's true mis-calibration factor: raw
/// logits are scaled by it, so the matching calibration temperature is the
/// same value (recovered by TemperatureScaler in the pipeline).
struct ModelProfile {
  std::string name;
  SimTime latency_us = 20 * kMillisecond;
  /// Relative stddev of the service time (deep model execution time is
  /// "approximately constant" per the paper; a few percent of jitter).
  double latency_jitter = 0.03;
  double memory_mb = 1000.0;
  double base_accuracy = 0.9;
  double hard_accuracy = 0.5;
  double overconfidence = 2.0;
  /// Regression tasks: systematic bias and noise scale of predictions.
  double regression_bias = 0.0;
  double regression_noise = 1.0;
  /// Retrieval tasks: multiplier on the relevance signal.
  double retrieval_quality = 1.0;
  /// Identity of the trained weights. Two profiles with equal settings but
  /// different seeds behave like the same architecture retrained with a
  /// different random seed (high-variance "preferences", Fig. 5).
  uint64_t seed = 0;
  /// Batch latency shape: fraction of latency_us that is fixed per
  /// execution, the coalescing factor paid by items beyond the first, and
  /// the largest batch one execution may carry. Together they define
  /// batch_latency(); defaults give a 16-item batch ~3.9x the cost of one
  /// task (~4x throughput headroom).
  double batch_base_fraction = 0.35;
  double batch_coalescing = 0.30;
  int max_batch = 16;

  /// P(prediction == true label | difficulty), linear in difficulty.
  double CorrectProbability(double difficulty) const;

  /// One execution's service time relative to its nominal cost:
  /// max(0.2, 1 + latency_jitter * N(0,1)), one Normal draw from `rng`.
  double DrawServiceFactor(Rng& rng) const {
    return std::max(0.2, 1.0 + latency_jitter * rng.Normal());
  }

  /// Batch latency curve calibrated so ServiceUs(1) == latency_us.
  BatchLatencyModel batch_latency() const;
};

/// The text-matching ensemble from the paper's intelligent Q&A system
/// (Fig. 1b): BiLSTM + RoBERTa + BERT, binary classification.
std::vector<ModelProfile> TextMatchingProfiles(uint64_t seed = 101);

/// The vehicle-counting ensemble (UA-DETRAC): EfficientDet-0 + YOLOv5l6 +
/// YOLOX, regression on counts.
std::vector<ModelProfile> VehicleCountingProfiles(uint64_t seed = 202);

/// The image-retrieval ensemble (R1M): DELG with two backbones.
std::vector<ModelProfile> ImageRetrievalProfiles(uint64_t seed = 303);

/// Six heterogeneous image classifiers mirroring the CIFAR100 study used in
/// Fig. 5 and Exp-7 (VGG16, ResNet18, ResNet101, DenseNet121, InceptionV3,
/// ResNeXt50). `seed` shifts the training seed of every architecture.
std::vector<ModelProfile> Cifar100StyleProfiles(uint64_t seed = 404);

/// Total memory of a set of profiles; the deployment budget of the paper's
/// server equals the full ensemble's footprint.
double TotalMemoryMb(const std::vector<ModelProfile>& profiles);

}  // namespace schemble

#endif  // SCHEMBLE_MODELS_MODEL_PROFILE_H_
