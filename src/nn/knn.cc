#include "nn/knn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/hot_path.h"
#include "common/logging.h"
#include "nn/kernels.h"

namespace schemble {

namespace {

/// Rows per MaskedSquaredDistances call: large enough to amortize dispatch,
/// small enough that the distance block stays in L1.
constexpr int kDistanceBlock = 256;
static_assert(KnnIndex::kLeafRows <= kDistanceBlock,
              "a tree leaf's distances must fit one distance block");

/// Observed-column list of a tree's packed points: every stored column.
constexpr std::array<int, KnnIndex::kMaxTreeColumns> kAllTreeColumns = [] {
  std::array<int, KnnIndex::kMaxTreeColumns> cols{};
  for (int t = 0; t < KnnIndex::kMaxTreeColumns; ++t) cols[t] = t;
  return cols;
}();

/// Lexicographic (squared distance, index) order — the deterministic
/// neighbor ranking shared with ReferenceKnnIndex. During selection
/// Neighbor::distance holds the SQUARED distance; sqrt is applied once when
/// results are emitted.
bool SqIndexLess(const KnnIndex::Neighbor& a, const KnnIndex::Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

/// resize() that records a grow event whenever the buffer's capacity was
/// insufficient (the steady-state zero-allocation invariant the equivalence
/// suite asserts, mirroring DpScheduler::WorkspaceStats).
template <typename T>
void ResizeTracked(std::vector<T>* v, size_t n, int64_t* grow_events) {
  if (v->capacity() < n) ++(*grow_events);
  v->resize(n);
}

/// Offers `cand` to the bounded max-heap of the `take` best candidates.
/// Replacement is on the full (distance, index) order, so the selected set
/// does not depend on the order candidates arrive in (the tree visits
/// records out of index order).
SCHEMBLE_HOT SCHEMBLE_ALWAYS_INLINE void OfferCandidate(
    KnnIndex::Neighbor cand, size_t take,
    std::vector<KnnIndex::Neighbor>* heap) {
  if (heap->size() < take) {
    heap->push_back(cand);  // hot-ok: SelectTopK reserved `take` slots
    std::push_heap(heap->begin(), heap->end(), SqIndexLess);
  } else if (SqIndexLess(cand, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), SqIndexLess);
    heap->back() = cand;
    std::push_heap(heap->begin(), heap->end(), SqIndexLess);
  }
}

/// Squared distance from `point` to the box [lo, hi], summed over the
/// columns in order. Rounding is monotone, so for every row inside the box
/// this never exceeds kernels::MaskedSquaredDistances' value: each gap is
/// at most the row's |difference| after rounding, and so are its square
/// and every partial sum.
SCHEMBLE_HOT SCHEMBLE_ALWAYS_INLINE double BoxBound(const double* lo,
                                                    const double* hi,
                                                    const double* point,
                                                    int cols) {
  double acc = 0.0;
  for (int t = 0; t < cols; ++t) {
    double gap = 0.0;
    if (point[t] < lo[t]) {
      gap = lo[t] - point[t];
    } else if (point[t] > hi[t]) {
      gap = point[t] - hi[t];
    }
    acc += gap * gap;
  }
  return acc;
}

}  // namespace

Result<KnnIndex> KnnIndex::Build(
    std::vector<std::vector<double>> records,
    const std::vector<std::vector<bool>>& indexed_masks) {
  if (records.empty()) {
    return Status::InvalidArgument("KNN index needs at least one record");
  }
  const size_t dim = records[0].size();
  if (dim == 0) return Status::InvalidArgument("KNN records must be non-empty");
  for (const auto& r : records) {
    if (r.size() != dim) {
      return Status::InvalidArgument("KNN records must share a dimension");
    }
    for (double v : r) {
      // The (distance, index) order and the tree's box bounds both assume
      // finite values; a NaN would make the two search paths disagree.
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("KNN records must be finite");
      }
    }
  }
  std::vector<std::vector<int>> tree_cols;
  for (const std::vector<bool>& mask : indexed_masks) {
    if (mask.size() != dim) {
      return Status::InvalidArgument(
          "indexed KNN masks must match the record dimension");
    }
    std::vector<int> cols;
    for (size_t d = 0; d < dim; ++d) {
      if (mask[d]) cols.push_back(static_cast<int>(d));
    }
    if (cols.empty()) {
      return Status::InvalidArgument(
          "indexed KNN masks need an observed column");
    }
    if (static_cast<int>(cols.size()) <= kMaxTreeColumns) {
      tree_cols.push_back(std::move(cols));
    }
  }
  // Validated: repack the ragged input into one flat row-major buffer so
  // the per-query distance scan streams contiguous memory.
  std::vector<double> data;
  data.reserve(records.size() * dim);
  for (const auto& r : records) data.insert(data.end(), r.begin(), r.end());
  KnnIndex index(static_cast<int>(records.size()), static_cast<int>(dim),
                 std::move(data));
  for (std::vector<int>& cols : tree_cols) index.BuildTree(std::move(cols));
  return index;
}

void KnnIndex::BuildTree(std::vector<int> cols) {
  KdTree tree;
  const int nc = static_cast<int>(cols.size());
  tree.cols = std::move(cols);
  tree.order.resize(static_cast<size_t>(num_records_));
  std::iota(tree.order.begin(), tree.order.end(), 0);

  auto value = [&](int record, int t) {
    return data_[static_cast<size_t>(record) * dim_ + tree.cols[t]];
  };
  // Median split on the widest column of each node's tight bounding box,
  // down to leaves of at most kLeafRows rows. Returns the node's index.
  auto build = [&](auto& self, int begin, int end) -> int {
    const int node = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({begin, end, -1, -1});
    tree.box.resize(static_cast<size_t>(node + 1) * 2 * nc);
    double* lo = tree.box.data() + static_cast<size_t>(node) * 2 * nc;
    double* hi = lo + nc;
    for (int t = 0; t < nc; ++t) {
      lo[t] = hi[t] = value(tree.order[begin], t);
      for (int i = begin + 1; i < end; ++i) {
        lo[t] = std::min(lo[t], value(tree.order[i], t));
        hi[t] = std::max(hi[t], value(tree.order[i], t));
      }
    }
    if (end - begin <= kLeafRows) return node;
    int split = 0;
    for (int t = 1; t < nc; ++t) {
      if (hi[t] - lo[t] > hi[split] - lo[split]) split = t;
    }
    const int mid = begin + (end - begin) / 2;
    std::nth_element(tree.order.begin() + begin, tree.order.begin() + mid,
                     tree.order.begin() + end, [&](int a, int b) {
                       const double va = value(a, split);
                       const double vb = value(b, split);
                       return va != vb ? va < vb : a < b;
                     });
    const int left = self(self, begin, mid);
    const int right = self(self, mid, end);
    tree.nodes[static_cast<size_t>(node)].left = left;
    tree.nodes[static_cast<size_t>(node)].right = right;
    return node;
  };
  build(build, 0, num_records_);

  tree.points.resize(static_cast<size_t>(num_records_) * nc);
  for (int i = 0; i < num_records_; ++i) {
    for (int t = 0; t < nc; ++t) {
      tree.points[static_cast<size_t>(i) * nc + t] = value(tree.order[i], t);
    }
  }
  trees_.push_back(std::move(tree));
}

int KnnIndex::FindTree(const std::vector<int>& observed) const {
  for (size_t i = 0; i < trees_.size(); ++i) {
    if (trees_[i].cols == observed) return static_cast<int>(i);
  }
  return -1;
}

bool KnnIndex::HasTree(const std::vector<bool>& mask) const {
  SCHEMBLE_CHECK_EQ(static_cast<int>(mask.size()), dim_);
  std::vector<int> observed;
  for (int d = 0; d < dim_; ++d) {
    if (mask[d]) observed.push_back(d);
  }
  return FindTree(observed) >= 0;
}

SCHEMBLE_HOT void KnnIndex::PackMask(const std::vector<bool>& mask,
                                     Workspace* ws) const {
  const size_t n = mask.size();
  if (ws->observed.capacity() < n) ++ws->stats.grow_events;
  if (ws->missing.capacity() < n) ++ws->stats.grow_events;
  ws->observed.clear();
  ws->observed.reserve(n);
  ws->missing.clear();
  ws->missing.reserve(n);
  for (size_t d = 0; d < n; ++d) {
    if (mask[d]) {
      ws->observed.push_back(static_cast<int>(d));
    } else {
      ws->missing.push_back(static_cast<int>(d));
    }
  }
  ws->tree = FindTree(ws->observed);
}

SCHEMBLE_HOT void KnnIndex::SelectTopK(int k, Workspace* ws) const {
  const size_t take = std::min<size_t>(k, num_records_);
  if (ws->heap.capacity() < take) ++ws->stats.grow_events;
  ws->heap.clear();
  ws->heap.reserve(take);
  const int block = std::min(kDistanceBlock, num_records_);
  ResizeTracked(&ws->dist, static_cast<size_t>(block), &ws->stats.grow_events);
  if (ws->tree >= 0) {
    const KdTree& tree = trees_[static_cast<size_t>(ws->tree)];
    const int nc = static_cast<int>(tree.cols.size());
    SearchTree(tree, 0,
               BoxBound(tree.box.data(), tree.box.data() + nc,
                        ws->point_obs.data(), nc),
               take, ws);
    ++ws->stats.tree_queries;
  } else {
    ScanTopK(take, ws);
  }
  std::sort(ws->heap.begin(), ws->heap.end(), SqIndexLess);
  ++ws->stats.queries;
}

SCHEMBLE_HOT void KnnIndex::ScanTopK(size_t take, Workspace* ws) const {
  const int num_obs = static_cast<int>(ws->observed.size());
  for (int start = 0; start < num_records_; start += kDistanceBlock) {
    const int rows = std::min(kDistanceBlock, num_records_ - start);
    kernels::MaskedSquaredDistances(row(start), rows, dim_,
                                    ws->point_obs.data(), ws->observed.data(),
                                    num_obs, ws->dist.data());
    for (int r = 0; r < rows; ++r) {
      OfferCandidate({start + r, ws->dist[r]}, take, &ws->heap);
    }
  }
}

SCHEMBLE_HOT void KnnIndex::SearchTree(const KdTree& tree, int node,
                                       double bound, size_t take,
                                       Workspace* ws) const {
  // Strict `>`: a row tying the k-th distance with a lower index still
  // belongs in the top k, so an equal bound must not prune.
  if (ws->heap.size() == take && bound > ws->heap.front().distance) return;
  const KdTree::Node& n = tree.nodes[static_cast<size_t>(node)];
  const int nc = static_cast<int>(tree.cols.size());
  if (n.left < 0) {
    const int rows = n.end - n.begin;
    kernels::MaskedSquaredDistances(
        tree.points.data() + static_cast<size_t>(n.begin) * nc, rows, nc,
        ws->point_obs.data(), kAllTreeColumns.data(), nc, ws->dist.data());
    for (int r = 0; r < rows; ++r) {
      OfferCandidate({tree.order[static_cast<size_t>(n.begin + r)],
                      ws->dist[r]},
                     take, &ws->heap);
    }
    return;
  }
  const double* box = tree.box.data();
  const double* point = ws->point_obs.data();
  const size_t stride = static_cast<size_t>(2 * nc);
  const double left = BoxBound(box + n.left * stride,
                               box + n.left * stride + nc, point, nc);
  const double right = BoxBound(box + n.right * stride,
                                box + n.right * stride + nc, point, nc);
  if (left <= right) {
    SearchTree(tree, n.left, left, take, ws);
    SearchTree(tree, n.right, right, take, ws);
  } else {
    SearchTree(tree, n.right, right, take, ws);
    SearchTree(tree, n.left, left, take, ws);
  }
}

SCHEMBLE_HOT void KnnIndex::QueryInto(const std::vector<double>& point,
                                      const std::vector<bool>& mask, int k,
                                      Workspace* ws,
                                      std::vector<Neighbor>* out) const {
  SCHEMBLE_CHECK(ws != nullptr && out != nullptr);
  SCHEMBLE_CHECK_EQ(point.size(), mask.size());
  SCHEMBLE_CHECK_EQ(static_cast<int>(point.size()), dim_);
  SCHEMBLE_CHECK_GT(k, 0);
  PackMask(mask, ws);
  SCHEMBLE_CHECK(!ws->observed.empty());
  ResizeTracked(&ws->point_obs, ws->observed.size(), &ws->stats.grow_events);
  for (size_t t = 0; t < ws->observed.size(); ++t) {
    ws->point_obs[t] = point[ws->observed[t]];
  }
  SelectTopK(k, ws);
  ResizeTracked(out, ws->heap.size(), &ws->stats.grow_events);
  for (size_t i = 0; i < ws->heap.size(); ++i) {
    (*out)[i] = {ws->heap[i].index, std::sqrt(ws->heap[i].distance)};
  }
}

std::vector<KnnIndex::Neighbor> KnnIndex::Query(
    const std::vector<double>& point, const std::vector<bool>& mask,
    int k) const {
  Workspace ws;
  std::vector<Neighbor> out;
  QueryInto(point, mask, k, &ws, &out);
  return out;
}

SCHEMBLE_HOT void KnnIndex::FillFromNeighbors(
    const std::vector<double>& point, Workspace* ws,
    std::vector<double>* out) const {
  if (out != &point) {
    ResizeTracked(out, point.size(), &ws->stats.grow_events);
    std::copy(point.begin(), point.end(), out->begin());
  }
  if (ws->missing.empty()) return;
  ResizeTracked(&ws->accum, ws->missing.size(), &ws->stats.grow_events);
  std::fill(ws->accum.begin(), ws->accum.end(), 0.0);
  // Inverse-distance weights; an exact match dominates. The neighbor-major
  // accumulation below performs, per missing coordinate, the same addition
  // sequence as the coordinate-major reference loop — filled values stay
  // bit-identical (the equivalence suite asserts this against
  // ReferenceKnnIndex).
  double total = 0.0;
  const int n_missing = static_cast<int>(ws->missing.size());
  for (const Neighbor& nb : ws->heap) {
    const double w = 1.0 / (std::sqrt(nb.distance) + 1e-9);
    total += w;
    kernels::GatherAxpy(w, row(nb.index), ws->missing.data(), n_missing,
                        ws->accum.data());
  }
  for (int t = 0; t < n_missing; ++t) {
    (*out)[ws->missing[t]] = ws->accum[t] / total;
  }
}

SCHEMBLE_HOT void KnnIndex::FillMissingInto(
    const std::vector<double>& point, const std::vector<bool>& mask, int k,
    Workspace* ws, std::vector<double>* out) const {
  SCHEMBLE_CHECK(ws != nullptr && out != nullptr);
  SCHEMBLE_CHECK_EQ(point.size(), mask.size());
  SCHEMBLE_CHECK_EQ(static_cast<int>(point.size()), dim_);
  SCHEMBLE_CHECK_GT(k, 0);
  PackMask(mask, ws);
  SCHEMBLE_CHECK(!ws->observed.empty());
  ResizeTracked(&ws->point_obs, ws->observed.size(), &ws->stats.grow_events);
  for (size_t t = 0; t < ws->observed.size(); ++t) {
    ws->point_obs[t] = point[ws->observed[t]];
  }
  SelectTopK(k, ws);
  FillFromNeighbors(point, ws, out);
}

std::vector<double> KnnIndex::FillMissing(const std::vector<double>& point,
                                          const std::vector<bool>& mask,
                                          int k) const {
  Workspace ws;
  std::vector<double> out;
  FillMissingInto(point, mask, k, &ws, &out);
  return out;
}

SCHEMBLE_HOT void KnnIndex::QueryBatch(
    const std::vector<std::vector<double>>& points,
    const std::vector<bool>& mask, int k, Workspace* ws,
    std::vector<std::vector<Neighbor>>* out) const {
  SCHEMBLE_CHECK(ws != nullptr && out != nullptr);
  SCHEMBLE_CHECK_GT(k, 0);
  SCHEMBLE_CHECK_EQ(static_cast<int>(mask.size()), dim_);
  PackMask(mask, ws);
  SCHEMBLE_CHECK(!ws->observed.empty());
  if (out->capacity() < points.size()) ++ws->stats.grow_events;
  out->resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const std::vector<double>& point = points[i];
    SCHEMBLE_CHECK_EQ(static_cast<int>(point.size()), dim_);
    ResizeTracked(&ws->point_obs, ws->observed.size(),
                  &ws->stats.grow_events);
    for (size_t t = 0; t < ws->observed.size(); ++t) {
      ws->point_obs[t] = point[ws->observed[t]];
    }
    SelectTopK(k, ws);
    std::vector<Neighbor>& dst = (*out)[i];
    ResizeTracked(&dst, ws->heap.size(), &ws->stats.grow_events);
    for (size_t j = 0; j < ws->heap.size(); ++j) {
      dst[j] = {ws->heap[j].index, std::sqrt(ws->heap[j].distance)};
    }
  }
}

SCHEMBLE_HOT void KnnIndex::FillMissingBatch(
    const std::vector<std::vector<double>>& points,
    const std::vector<bool>& mask, int k, Workspace* ws,
    std::vector<std::vector<double>>* out) const {
  SCHEMBLE_CHECK(ws != nullptr && out != nullptr);
  SCHEMBLE_CHECK_GT(k, 0);
  SCHEMBLE_CHECK_EQ(static_cast<int>(mask.size()), dim_);
  PackMask(mask, ws);
  SCHEMBLE_CHECK(!ws->observed.empty());
  if (out->capacity() < points.size()) ++ws->stats.grow_events;
  out->resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const std::vector<double>& point = points[i];
    SCHEMBLE_CHECK_EQ(static_cast<int>(point.size()), dim_);
    ResizeTracked(&ws->point_obs, ws->observed.size(),
                  &ws->stats.grow_events);
    for (size_t t = 0; t < ws->observed.size(); ++t) {
      ws->point_obs[t] = point[ws->observed[t]];
    }
    SelectTopK(k, ws);
    FillFromNeighbors(point, ws, &(*out)[i]);
  }
}

}  // namespace schemble
