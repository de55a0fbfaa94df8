#ifndef SCHEMBLE_NN_KNN_H_
#define SCHEMBLE_NN_KNN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace schemble {

/// Exact k-nearest-neighbour index with support for *masked* queries:
/// distances are computed only over the observed coordinates. This is the
/// engine behind the paper's KNN missing-value filling (§VII): given the
/// outputs of the executed base models, find the k most similar historical
/// full-output records and fill the missing outputs with their
/// distance-weighted average.
///
/// Two search paths share one top-k selection (SelectTopK):
///  - **k-d tree.** Build indexes caller-named observed masks (the
///    stacking aggregator passes its executed subsets' column masks). Each
///    mask with at most kMaxTreeColumns observed columns gets a k-d tree
///    over just those columns: leaf buckets of at most kLeafRows rows stored
///    contiguously in leaf order, a bounding box per node, and a
///    permutation back to record indices. A query whose mask has a tree
///    searches it depth-first, nearest child first, and skips a node only
///    when the heap is full and the node's box bound is strictly greater
///    than the current k-th squared distance. Trees pay only in low
///    observed dimension, hence the column cap.
///  - **Blocked scan.** Every other mask streams all records through
///    kernels::MaskedSquaredDistances block by block (256 rows) into a
///    reusable workspace; records live in ONE flat row-major buffer.
///
/// Both paths keep a bounded max-heap of k candidates and perform zero
/// heap allocations once the caller's workspace has warmed up (tracked by
/// Workspace stats).
///
/// Ordering contract: neighbors are ranked by (squared distance, record
/// index) ascending, so distance ties break deterministically by index on
/// every platform. ReferenceKnnIndex implements the same contract with the
/// seed algorithm; the equivalence suite asserts bit-identical results on
/// both paths. The tree stays exact because (a) rounding is monotone, so a
/// box bound (per-column gaps squared and summed in observed order) never
/// exceeds the kernel's distance for any row inside the box, and (b) the
/// prune is a strict `>`, so a row tying the k-th distance with a lower
/// index is still visited. Both need finite values: Build rejects NaN and
/// infinities, and query points must be finite too.
class KnnIndex {
 public:
  /// Masks with more observed columns than this keep the blocked scan:
  /// past a few dimensions box bounds prune too little to beat streaming
  /// (2000 Gaussian records, k = 10: the tree is 1.7x faster than the scan
  /// at 6 observed columns and breaks even at 8).
  static constexpr int kMaxTreeColumns = 6;
  /// Most rows in one k-d tree leaf bucket.
  static constexpr int kLeafRows = 16;

  /// Builds an index over `records`, all of equal non-zero dimension and
  /// finite values. The ragged input is validated and repacked into the
  /// flat row-major buffer (the input vectors are released; only the flat
  /// copy is kept). Each of `indexed_masks` (size dim(), at least one
  /// observed column) with at most kMaxTreeColumns observed columns gets a
  /// k-d tree; queries with any other mask take the blocked scan.
  static Result<KnnIndex> Build(
      std::vector<std::vector<double>> records,
      const std::vector<std::vector<bool>>& indexed_masks = {});

  struct Neighbor {
    int index = 0;
    double distance = 0.0;
  };

  /// Caller-owned scratch for the allocation-free entry points. Not
  /// thread-safe: use one Workspace per thread (the index itself is
  /// immutable after Build and safe to share).
  struct Workspace {
    /// Telemetry mirroring DpScheduler::WorkspaceStats: steady-state
    /// queries (same shape) must not add grow_events — the zero-allocation
    /// invariant the equivalence suite asserts.
    struct Stats {
      int64_t grow_events = 0;
      int64_t queries = 0;
      /// Queries answered by a k-d tree (the rest took the scan).
      int64_t tree_queries = 0;
    };

    std::vector<int> observed;    // packed dims with mask[d] == true
    std::vector<int> missing;     // packed dims with mask[d] == false
    std::vector<double> point_obs;  // query values at `observed`
    std::vector<double> dist;     // per-row squared distances (one block)
    std::vector<Neighbor> heap;   // bounded top-k max-heap, then sorted
    std::vector<double> accum;    // fill accumulator over `missing`
    int tree = -1;  // the current mask's k-d tree; -1 = none (scan)
    Stats stats;
  };

  /// k nearest records over coordinates where mask[d] == true, sorted by
  /// (distance, index) ascending. Requires at least one observed
  /// coordinate and k > 0. Convenience wrapper that allocates.
  std::vector<Neighbor> Query(const std::vector<double>& point,
                              const std::vector<bool>& mask, int k) const;

  /// Allocation-free Query: neighbors are written into `out` (resized to
  /// min(k, size())).
  void QueryInto(const std::vector<double>& point,
                 const std::vector<bool>& mask, int k, Workspace* ws,
                 std::vector<Neighbor>* out) const;

  /// Fills coordinates where mask[d] == false with the inverse-distance
  /// weighted average of the k nearest records' values at d; observed
  /// coordinates are returned unchanged.
  std::vector<double> FillMissing(const std::vector<double>& point,
                                  const std::vector<bool>& mask, int k) const;

  /// Allocation-free FillMissing. `out` may alias `point` (in-place fill):
  /// distances are computed before anything is written, and only masked-out
  /// coordinates are overwritten.
  void FillMissingInto(const std::vector<double>& point,
                       const std::vector<bool>& mask, int k, Workspace* ws,
                       std::vector<double>* out) const;

  /// Batched Query over points sharing one mask (the profiling / replay
  /// shape: a fixed executed subset across a test set). The packed
  /// observed-dimension list is built once for the whole batch, amortizing
  /// per-query dispatch overhead. out->at(i) holds point i's neighbors.
  void QueryBatch(const std::vector<std::vector<double>>& points,
                  const std::vector<bool>& mask, int k, Workspace* ws,
                  std::vector<std::vector<Neighbor>>* out) const;

  /// Batched FillMissing over points sharing one mask; out->at(i) is the
  /// filled copy of points[i]. `out` may alias `points` (in-place batch
  /// fill). Zero steady-state allocations when the caller reuses `out`
  /// across batches.
  void FillMissingBatch(const std::vector<std::vector<double>>& points,
                        const std::vector<bool>& mask, int k, Workspace* ws,
                        std::vector<std::vector<double>>* out) const;

  int size() const { return num_records_; }
  int dim() const { return dim_; }
  /// Whether queries with `mask` search a k-d tree instead of scanning.
  bool HasTree(const std::vector<bool>& mask) const;
  /// Flat row-major record storage (tests verify Build's repacking).
  const double* row(int i) const {
    return data_.data() + static_cast<size_t>(i) * dim_;
  }

 private:
  /// k-d tree over one observed-column set. Node n covers leaf-order
  /// positions [begin, end); its box holds `cols.size()` lower bounds then
  /// as many upper bounds at box[n * 2 * cols.size()]. Leaves have
  /// left == -1.
  struct KdTree {
    struct Node {
      int begin = 0;
      int end = 0;
      int left = -1;
      int right = -1;
    };
    std::vector<int> cols;       // observed dimensions, ascending
    std::vector<Node> nodes;     // nodes[0] is the root
    std::vector<double> box;
    std::vector<double> points;  // observed columns, row-major, leaf order
    std::vector<int> order;      // leaf-order position -> record index
  };

  KnnIndex(int num_records, int dim, std::vector<double> data)
      : num_records_(num_records), dim_(dim), data_(std::move(data)) {}

  /// Builds trees_ entry over `cols` (ascending observed dimensions).
  void BuildTree(std::vector<int> cols);
  /// Packs the mask into ws->observed / ws->missing and looks up the
  /// mask's tree into ws->tree. Growths are counted in ws->stats.
  void PackMask(const std::vector<bool>& mask, Workspace* ws) const;
  /// Top-k selection into ws->heap (sorted ascending on return): searches
  /// ws->tree when set, scans every record otherwise. Requires PackMask
  /// and ws->point_obs to be current.
  void SelectTopK(int k, Workspace* ws) const;
  /// The two selection paths; both leave ws->heap an unsorted max-heap.
  void ScanTopK(size_t take, Workspace* ws) const;
  /// Depth-first search of `node`, whose box bound is `bound`.
  void SearchTree(const KdTree& tree, int node, double bound, size_t take,
                  Workspace* ws) const;
  /// Index into trees_ of the tree over exactly `observed`, or -1.
  int FindTree(const std::vector<int>& observed) const;
  /// Shared fill core: assumes ws->heap holds the sorted neighbors.
  void FillFromNeighbors(const std::vector<double>& point, Workspace* ws,
                         std::vector<double>* out) const;

  int num_records_ = 0;
  int dim_ = 0;
  /// Row-major: record i's coordinates at data_[i * dim_ .. i * dim_ + dim_).
  std::vector<double> data_;
  std::vector<KdTree> trees_;
};

}  // namespace schemble

#endif  // SCHEMBLE_NN_KNN_H_
