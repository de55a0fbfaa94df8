#ifndef SCHEMBLE_COMMON_PROB_H_
#define SCHEMBLE_COMMON_PROB_H_

#include <span>
#include <vector>

namespace schemble {

/// Probability-vector utilities shared by the model substrate and the
/// discrepancy-score machinery (Eq. 1 of the paper uses JS divergence for
/// classifiers and Euclidean distance for regressors). Read-only inputs are
/// spans, so a query's payload block is read in place.

/// In-place softmax of `logits`; numerically stable (subtracts max).
void SoftmaxInPlace(std::span<double> logits);

/// Returns softmax(logits) without modifying the input.
std::vector<double> Softmax(std::span<const double> logits);

/// Temperature-scaled softmax: softmax(logits / temperature).
/// temperature > 1 flattens, < 1 sharpens. Requires temperature > 0.
std::vector<double> SoftmaxWithTemperature(std::span<const double> logits,
                                           double temperature);

/// Renormalizes a non-negative vector to sum to one. A zero vector becomes
/// uniform.
void NormalizeInPlace(std::vector<double>& p);

/// Shannon entropy (natural log) of a probability vector.
double Entropy(std::span<const double> p);

/// KL(p || q) with epsilon smoothing to keep it finite.
double KlDivergence(std::span<const double> p, std::span<const double> q);

/// Symmetric KL: KL(p||q) + KL(q||p). Used by the ensemble-agreement
/// baseline metric.
double SymmetricKlDivergence(std::span<const double> p,
                             std::span<const double> q);

/// Jensen-Shannon divergence (natural log, in [0, ln 2]). Used by the
/// discrepancy score for classification tasks.
double JsDivergence(std::span<const double> p, std::span<const double> q);

/// Euclidean distance between vectors of equal length. Used by the
/// discrepancy score for regression tasks.
double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b);

/// Index of the largest element (ties -> lowest index). Requires non-empty.
int Argmax(std::span<const double> v);

}  // namespace schemble

#endif  // SCHEMBLE_COMMON_PROB_H_
