// Batched small problems: thousands of independent small QRs fused into
// ONE task graph scheduled in ONE pass over the shared worker pool.
//
// The fusion trick is a tile-namespace shift. Problem p's tiles live in
// rows [row_offset_p, row_offset_p + mt_p) of a virtual
// (sum mt_p) x (max nt_p) tile grid: every kernel op of problem p has its
// `row`/`piv` shifted by row_offset_p while `k`/`j` stay put. Tile-row
// ranges are disjoint across problems, so every tile access of problem p is
// disjoint from every access of problem q != p — the TaskGraph built over
// the concatenated kernel list is exactly the union of the per-problem
// graphs with zero cross edges. One DagPool submission then schedules all
// problems at once: no per-problem submission latency, no per-problem
// graph-admission lock traffic, and tail tasks of one problem overlap head
// tasks of the next.
//
// Each problem is still factored by its own QRFactors with its own
// unshifted kernel list, so fused results are bit-identical to running the
// problems one by one (the kernels and their relative order per problem are
// unchanged; kernels of different problems touch disjoint memory).
//
// The server builds every factor DAG here: a SubmitQR is a batch of one,
// whose row offset is 0, so its graph is exactly the plain
// TaskGraph(kernels, mt, nt) of its problem.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "serve/protocol.hpp"

namespace hqr::serve {

class FusedBatch {
 public:
  // All problems share tile size b, inner block ib and tree choice (the
  // homogeneity that makes one scheduler pass and one workspace per worker
  // possible). Throws hqr::Error on an empty batch; shapes are expected to
  // be pre-validated (validate_shape).
  FusedBatch(const std::vector<Matrix>& problems, int b, TreeChoice tree,
             int ib);

  std::size_t size() const { return factors_.size(); }
  int b() const { return b_; }

  // The fused dependency graph over all problems' kernels.
  const std::shared_ptr<const TaskGraph>& graph() const { return graph_; }

  // Executes fused task `idx` against the owning problem's factors.
  // Thread-safe for concurrent distinct indices (disjoint tiles).
  void execute(std::int32_t idx, TileWorkspace& ws);

  // Problem p's factors (its Householder vectors and T blocks), complete
  // once every task has executed.
  const QRFactors& factors(std::size_t p) const;

  // R of problem p, valid once every task has executed.
  Matrix r(std::size_t p) const;

 private:
  int b_ = 1;
  std::vector<QRFactors> factors_;
  std::vector<std::size_t> op_offset_;  // per-problem start in the fused
                                        // list, plus end sentinel
  std::shared_ptr<const TaskGraph> graph_;
};

}  // namespace hqr::serve
