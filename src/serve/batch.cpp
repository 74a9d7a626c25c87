#include "serve/batch.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "linalg/tiled_matrix.hpp"

namespace hqr::serve {

FusedBatch::FusedBatch(const std::vector<Matrix>& problems, int b,
                       TreeChoice tree, int ib)
    : b_(b) {
  HQR_CHECK(!problems.empty(), "FusedBatch needs at least one problem");
  HQR_CHECK(b >= 1, "tile size must be >= 1");

  factors_.reserve(problems.size());
  op_offset_.reserve(problems.size() + 1);

  KernelList fused;
  int row_offset = 0;
  int fused_nt = 0;
  for (const Matrix& a : problems) {
    TiledMatrix ta = TiledMatrix::from_matrix(a, b);
    const int mt = ta.mt();
    const int nt = ta.nt();
    KernelList kernels = expand_to_kernels(elimination_for(tree, mt, nt),
                                           mt, nt);
    op_offset_.push_back(fused.size());
    fused.reserve(fused.size() + kernels.size());
    for (const KernelOp& op : kernels) {
      KernelOp shifted = op;
      shifted.row += row_offset;
      shifted.piv += row_offset;
      fused.push_back(shifted);
    }
    factors_.emplace_back(std::move(ta), std::move(kernels), ib);
    row_offset += mt;
    fused_nt = std::max(fused_nt, nt);
  }
  op_offset_.push_back(fused.size());

  graph_ = std::make_shared<const TaskGraph>(fused, row_offset, fused_nt);
}

void FusedBatch::execute(std::int32_t idx, TileWorkspace& ws) {
  HQR_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < op_offset_.back(),
            "fused task " << idx << " out of range");
  // Owning problem: the last offset <= idx (per-problem ops are contiguous).
  const auto it = std::upper_bound(op_offset_.begin(), op_offset_.end(),
                                   static_cast<std::size_t>(idx));
  const std::size_t p = static_cast<std::size_t>(it - op_offset_.begin()) - 1;
  QRFactors& f = factors_[p];
  const std::size_t local = static_cast<std::size_t>(idx) - op_offset_[p];
  execute_kernel(f.kernels()[local], f, ws);
}

const QRFactors& FusedBatch::factors(std::size_t p) const {
  HQR_CHECK(p < factors_.size(), "problem index " << p << " out of range");
  return factors_[p];
}

Matrix FusedBatch::r(std::size_t p) const { return extract_r(factors(p)); }

}  // namespace hqr::serve
