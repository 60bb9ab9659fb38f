#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/blas.hpp"

namespace uoi::linalg {

namespace {

// Panel width of the blocked right-looking factorization and the tile edge
// of its trailing update. Panel rows are contiguous row slices of the
// factor itself (row-major storage), so the 2x4 micro-kernel streams six
// unit-stride lanes with no packing step — the same tile shape as
// gemm_block / syrk_at_a.
constexpr std::size_t kCholPanel = 64;
constexpr std::size_t kCholTile = 64;

/// L[i0:i1, k0:k1] -= P_i P_k' where P_r = l.row(r)[p0:p1]. Full-rectangle
/// tile strictly left of the diagonal: writes land in columns >= p1 while
/// reads come from columns [p0, p1), so there is no aliasing.
void chol_tile_update(Matrix& l, std::size_t p0, std::size_t p1,
                      std::size_t i0, std::size_t i1, std::size_t k0,
                      std::size_t k1) {
  const std::size_t kk = p1 - p0;
  std::size_t i = i0;
  for (; i + 1 < i1; i += 2) {
    const double* a0 = &l(i, p0);
    const double* a1 = &l(i + 1, p0);
    double* c0 = &l(i, 0);
    double* c1 = &l(i + 1, 0);
    std::size_t k = k0;
    for (; k + 3 < k1; k += 4) {
      const double* b0 = &l(k, p0);
      const double* b1 = &l(k + 1, p0);
      const double* b2 = &l(k + 2, p0);
      const double* b3 = &l(k + 3, p0);
      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
      for (std::size_t t = 0; t < kk; ++t) {
        const double a0t = a0[t];
        const double a1t = a1[t];
        s00 += a0t * b0[t];
        s01 += a0t * b1[t];
        s02 += a0t * b2[t];
        s03 += a0t * b3[t];
        s10 += a1t * b0[t];
        s11 += a1t * b1[t];
        s12 += a1t * b2[t];
        s13 += a1t * b3[t];
      }
      c0[k] -= s00;
      c0[k + 1] -= s01;
      c0[k + 2] -= s02;
      c0[k + 3] -= s03;
      c1[k] -= s10;
      c1[k + 1] -= s11;
      c1[k + 2] -= s12;
      c1[k + 3] -= s13;
    }
    for (; k < k1; ++k) {
      const double* b = &l(k, p0);
      c0[k] -= dot({a0, kk}, {b, kk});
      c1[k] -= dot({a1, kk}, {b, kk});
    }
  }
  for (; i < i1; ++i) {
    const double* ai = &l(i, p0);
    double* ci = &l(i, 0);
    for (std::size_t k = k0; k < k1; ++k) {
      const double* b = &l(k, p0);
      ci[k] -= dot({ai, kk}, {b, kk});
    }
  }
}

/// Diagonal tile of the trailing update: only k <= i is live.
void chol_diag_tile_update(Matrix& l, std::size_t p0, std::size_t p1,
                           std::size_t t0, std::size_t t1) {
  const std::size_t kk = p1 - p0;
  for (std::size_t i = t0; i < t1; ++i) {
    const double* ai = &l(i, p0);
    double* ci = &l(i, 0);
    for (std::size_t k = t0; k <= i; ++k) {
      const double* b = &l(k, p0);
      ci[k] -= dot({ai, kk}, {b, kk});
    }
  }
}

/// Blocked right-looking Cholesky, in place on the lower triangle of `l`
/// (entries above the diagonal must already be zero). Per panel: unblocked
/// Crout on the diagonal block, a row-wise triangular solve for the panel
/// below it, then a tiled syrk-style subtraction from the trailing
/// submatrix. All dots run over contiguous row slices.
void factor_lower_in_place(Matrix& l) {
  const std::size_t n = l.rows();
  for (std::size_t j0 = 0; j0 < n; j0 += kCholPanel) {
    const std::size_t j1 = std::min(n, j0 + kCholPanel);
    for (std::size_t j = j0; j < j1; ++j) {
      const auto lrowj = l.row(j);
      double diag =
          l(j, j) - dot(lrowj.subspan(j0, j - j0), lrowj.subspan(j0, j - j0));
      UOI_CHECK(diag > 0.0, "matrix is not positive definite");
      diag = std::sqrt(diag);
      l(j, j) = diag;
      const double inv_diag = 1.0 / diag;
      for (std::size_t i = j + 1; i < j1; ++i) {
        const double off =
            l(i, j) - dot(l.row(i).subspan(j0, j - j0),
                          l.row(j).subspan(j0, j - j0));
        l(i, j) = off * inv_diag;
      }
    }
    if (j1 == n) break;
    for (std::size_t i = j1; i < n; ++i) {
      const auto rowi = l.row(i);
      for (std::size_t j = j0; j < j1; ++j) {
        const double off = l(i, j) - dot(rowi.subspan(j0, j - j0),
                                         l.row(j).subspan(j0, j - j0));
        l(i, j) = off / l(j, j);
      }
    }
    for (std::size_t i0 = j1; i0 < n; i0 += kCholTile) {
      const std::size_t i1 = std::min(n, i0 + kCholTile);
      for (std::size_t k0 = j1; k0 <= i0; k0 += kCholTile) {
        if (k0 == i0) {
          chol_diag_tile_update(l, j0, j1, i0, i1);
        } else {
          chol_tile_update(l, j0, j1, i0, i1, k0,
                           std::min(n, k0 + kCholTile));
        }
      }
    }
  }
}

}  // namespace

CholeskyFactor::CholeskyFactor(const Matrix& a) : CholeskyFactor(a, 0.0) {}

CholeskyFactor::CholeskyFactor(const Matrix& a, double diagonal_shift)
    : l_(a.rows(), a.cols()) {
  UOI_CHECK_DIMS(a.rows() == a.cols(), "Cholesky of a non-square matrix");
  const std::size_t n = a.rows();
  // Copy only the lower triangle (the fresh l_ is zero above the diagonal)
  // and fold the shift into the diagonal during the copy, so refactoring a
  // cached rho-free Gram never mutates the shared source matrix.
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = a.row(i);
    const auto dst = l_.row(i);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              dst.begin());
    dst[i] += diagonal_shift;
  }
  factor_lower_in_place(l_);
}

void CholeskyFactor::solve_lower(std::span<const double> b,
                                 std::span<double> y) const {
  const std::size_t n = dim();
  UOI_CHECK_DIMS(b.size() == n && y.size() == n, "solve_lower size mismatch");
  const auto& kernels = simd::active_kernels();
  for (std::size_t i = 0; i < n; ++i) {
    const double partial = kernels.dot(l_.row(i).data(), y.data(), i);
    y[i] = (b[i] - partial) / l_(i, i);
  }
}

void CholeskyFactor::solve_upper(std::span<const double> y,
                                 std::span<double> x) const {
  const std::size_t n = dim();
  UOI_CHECK_DIMS(y.size() == n && x.size() == n, "solve_upper size mismatch");
  // L' x = y solved backwards, reading L down column i.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l_(k, i) * x[k];
    x[i] = sum / l_(i, i);
  }
}

void CholeskyFactor::solve(std::span<const double> b,
                           std::span<double> x) const {
  if (solve_scratch_.size() != dim()) solve_scratch_.resize(dim());
  solve_lower(b, solve_scratch_);
  solve_upper(solve_scratch_, x);
}

void CholeskyFactor::solve_matrix(const Matrix& b, Matrix& x) const {
  UOI_CHECK_DIMS(b.rows() == dim(), "solve_matrix: B has the wrong row count");
  x.resize(b.rows(), b.cols());
  std::vector<double> col(dim()), sol(dim());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    solve(col, sol);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
}

namespace {

using simd::packed_row;

/// First element of `buffer` on a 64-byte cache-line boundary. Lane
/// groups start there, so no eight-lane vector load straddles two lines;
/// the buffer carries 7 spare doubles for the shift.
std::size_t line_start(const std::vector<double>& buffer) {
  const auto address = reinterpret_cast<std::uintptr_t>(buffer.data());
  return (64 - address % 64) % 64 / sizeof(double);
}

/// Writes one lane's packed factor at `dst` (element (i, j) at
/// dst[8 (i(i+1)/2 + j)]): rows below `dim` from value(i, j), identity
/// rows up to the group's padded `n`. A padded row solves to +0, so the
/// backward sweep of a shorter lane only ever subtracts +0 * +0 past its
/// own dimension, which changes no bits.
template <class Value>
void write_lane(double* dst, std::size_t dim, std::size_t n,
                const Value& value) {
  for (std::size_t i = 0; i < n; ++i) {
    double* row = dst + 8 * packed_row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      row[8 * j] = i < dim ? value(i, j) : (i == j ? 1.0 : 0.0);
    }
  }
}

/// Both sweeps of one system in place, over its factor packed by row
/// (element (i, j <= i) at f[i(i+1)/2 + j]): CholeskyFactor::solve's
/// arithmetic, so its bytes are those of the lane kernel too.
void solve_packed(const double* f, std::size_t n, double* x,
                  const simd::KernelTable& kernels) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = f + packed_row(i);
    x[i] = (x[i] - kernels.dot(row, x, i)) / row[i];
  }
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = x[i];
    // Down column i: element (k, i) sits k + 1 past element (k - 1, i).
    for (std::size_t k = i + 1, at = packed_row(k) + i; k < n; at += ++k) {
      sum -= f[at] * x[k];
    }
    x[i] = sum / f[packed_row(i) + i];
  }
}

}  // namespace

CholeskyBatch::CholeskyBatch(std::span<const System> systems,
                             double diagonal_shift) {
  slots_.resize(systems.size());
  for (std::size_t k = 0; k < systems.size(); ++k) {
    slots_[k].offset = systems[k].offset;
    slots_[k].dim = systems[k].gram->rows();
    slots_[k].live = true;
    extent_ = std::max(extent_, slots_[k].offset + slots_[k].dim);
  }
  // Largest first, so each group of eight pads its lanes as little as
  // possible; ties keep input order.
  std::vector<std::size_t> order(systems.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slots_[a].dim > slots_[b].dim;
                   });
  lay_out(order);
  for (std::size_t k = 0; k < systems.size(); ++k) {
    const CholeskyFactor factor(*systems[k].gram, diagonal_shift);
    const Matrix& l = factor.lower();
    write_lane(lane_factor(slots_[k]), l.rows(), groups_[slots_[k].group].n,
               [&](std::size_t i, std::size_t j) { return l(i, j); });
    factor_flops_ += cholesky_flops(l.rows());
  }
}

CholeskyBatch::CholeskyBatch(const Matrix& gram, double diagonal_shift,
                             std::size_t count)
    : shared_(true) {
  const CholeskyFactor factor(gram, diagonal_shift);
  const Matrix& l = factor.lower();
  const std::size_t dim = l.rows();
  packed_.resize(packed_row(dim));
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j <= i; ++j) packed_[packed_row(i) + j] = l(i, j);
  }
  factor_flops_ = cholesky_flops(dim);
  // Unused lanes of the last lane group solve a zero right-hand side.
  slots_.resize(count);
  for (std::size_t first = 0; first < count; first += kGroupLanes) {
    Group group;
    group.n = dim;
    const std::size_t lanes = std::min(kGroupLanes, count - first);
    group.lane_groups = (lanes + kLanes - 1) / kLanes;
    for (std::size_t lane = 0; lane < kGroupLanes; ++lane) {
      group.slots[lane] = lane < lanes ? first + lane : kNone;
      if (lane < lanes) {
        slots_[first + lane] = {(first + lane) * dim, dim, true,
                                groups_.size(), lane, {}, {}};
      }
    }
    groups_.push_back(group);
  }
  extent_ = count * dim;
}

void CholeskyBatch::lay_out(std::span<const std::size_t> order) const {
  groups_.clear();
  std::size_t total = 0;
  for (std::size_t first = 0; first < order.size(); first += kGroupLanes) {
    Group group;
    group.n = slots_[order[first]].dim;
    const std::size_t lanes = std::min(kGroupLanes, order.size() - first);
    group.lane_groups = (lanes + kLanes - 1) / kLanes;
    group.packed = total;
    for (std::size_t lane = 0; lane < kGroupLanes; ++lane) {
      group.slots[lane] = lane < lanes ? order[first + lane] : kNone;
      if (lane < lanes) {
        slots_[order[first + lane]].group = groups_.size();
        slots_[order[first + lane]].lane = lane;
      }
    }
    total += group.lane_groups * kLanes * packed_row(group.n);
    groups_.push_back(group);
  }
  packed_.assign(total + kLanes - 1, 0.0);
  const std::size_t start = line_start(packed_);
  for (Group& group : groups_) {
    group.packed += start;
    // Lanes past the last system solve a zero right-hand side on an
    // identity factor.
    for (std::size_t lane = 0; lane < group.lane_groups * kLanes; ++lane) {
      if (group.slots[lane] != kNone) continue;
      write_lane(packed_.data() + group.packed +
                     lane_base(lane, kLanes * packed_row(group.n)),
                 0, group.n, [](std::size_t, std::size_t) { return 0.0; });
    }
  }
}

double* CholeskyBatch::lane_factor(const Slot& slot) const {
  const Group& group = groups_[slot.group];
  return packed_.data() + group.packed +
         lane_base(slot.lane, kLanes * packed_row(group.n));
}

void CholeskyBatch::refactor(std::size_t k, const Matrix& gram,
                             double diagonal_shift, std::size_t offset) {
  const CholeskyFactor factor(gram, diagonal_shift);
  factor_flops_ += cholesky_flops(factor.dim());
  assign(k, factor, offset);
}

void CholeskyBatch::assign(std::size_t k, const CholeskyFactor& factor,
                           std::size_t offset) {
  UOI_CHECK(!shared_, "CholeskyBatch: refactor of a shared-factor batch");
  if (k >= slots_.size()) slots_.resize(k + 1);
  const Matrix& l = factor.lower();
  Slot& slot = slots_[k];
  slot.offset = offset;
  slot.dim = l.rows();
  slot.live = true;
  slot.lone.clear();
  extent_ = std::max(extent_, offset + slot.dim);
  const auto value = [&](std::size_t i, std::size_t j) { return l(i, j); };
  if (slot.group != kNone && slot.dim <= groups_[slot.group].n) {
    write_lane(lane_factor(slot), slot.dim, groups_[slot.group].n, value);
    slot.pending.clear();
    return;
  }
  slot.pending.resize(packed_row(slot.dim));
  for (std::size_t i = 0; i < slot.dim; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      slot.pending[packed_row(i) + j] = l(i, j);
    }
  }
  dirty_ = true;
}

void CholeskyBatch::retire(std::size_t k) {
  UOI_CHECK(k < slots_.size(), "CholeskyBatch: retire of an unknown system");
  slots_[k].live = false;
}

void CholeskyBatch::regroup() const {
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    if (slots_[k].live) order.push_back(k);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slots_[a].dim > slots_[b].dim;
                   });
  // Where each live factor sits now, read before the new layout replaces
  // the old one.
  std::vector<const double*> old_factor(slots_.size(), nullptr);
  for (const std::size_t k : order) {
    if (slots_[k].pending.empty()) old_factor[k] = lane_factor(slots_[k]);
  }
  std::vector<double> old_packed = std::move(packed_);
  for (Slot& slot : slots_) slot.group = kNone;
  lay_out(order);
  for (const std::size_t k : order) {
    Slot& slot = slots_[k];
    const std::size_t n = groups_[slot.group].n;
    if (old_factor[k] != nullptr) {
      const double* src = old_factor[k];
      write_lane(lane_factor(slot), slot.dim, n,
                 [&](std::size_t i, std::size_t j) {
                   return src[kLanes * (packed_row(i) + j)];
                 });
    } else {
      write_lane(lane_factor(slot), slot.dim, n,
                 [&](std::size_t i, std::size_t j) {
                   return slot.pending[packed_row(i) + j];
                 });
      std::vector<double>().swap(slot.pending);
    }
  }
  dirty_ = false;
}

std::uint64_t CholeskyBatch::solve_flops() const noexcept {
  std::uint64_t flops = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) flops += 2 * trsv_flops(slot.dim);
  }
  return flops;
}

void CholeskyBatch::solve(std::span<const double> b,
                          std::span<double> x) const {
  solve(b, x, simd::active_kernels());
}

void CholeskyBatch::solve(std::span<const double> b, std::span<double> x,
                          const simd::KernelTable& kernels) const {
  UOI_CHECK_DIMS(b.size() >= extent_ && x.size() >= extent_,
                 "CholeskyBatch::solve: vector shorter than the systems");
  if (dirty_) regroup();
  for (const Group& group : groups_) {
    const std::size_t n = group.n;
    // The live lane groups of eight, and the one live system when alone.
    std::size_t live = 0;
    std::size_t lone = kNone;
    std::size_t first = kGroupLanes;
    std::size_t last = 0;
    for (std::size_t lane = 0; lane < group.lane_groups * kLanes; ++lane) {
      const std::size_t k = group.slots[lane];
      if (k == kNone || !slots_[k].live) continue;
      ++live;
      lone = k;
      first = std::min(first, lane / kLanes);
      last = lane / kLanes;
    }
    if (live == 0) continue;
    if (live == 1) {
      // One system: a lone factor's sweeps, in place on its slice, over a
      // contiguous copy of its lane (the shared factor is one already).
      Slot& slot = slots_[lone];
      if (!shared_ && slot.lone.empty()) {
        const double* lane = lane_factor(slot);
        slot.lone.resize(packed_row(slot.dim));
        for (std::size_t i = 0; i < slot.lone.size(); ++i) {
          slot.lone[i] = lane[kLanes * i];
        }
      }
      const auto out = x.subspan(slot.offset, slot.dim);
      std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(slot.offset),
                  slot.dim, out.begin());
      solve_packed(shared_ ? packed_.data() : slot.lone.data(), slot.dim,
                   out.data(), kernels);
      continue;
    }
    const std::size_t block = kLanes * packed_row(n);
    const std::size_t lane_groups = last - first + 1;
    scratch_.resize(
        std::max(scratch_.size(), lane_groups * kLanes * n + kLanes - 1));
    double* v = scratch_.data() + line_start(scratch_);
    for (std::size_t lane = first * kLanes; lane < (last + 1) * kLanes;
         ++lane) {
      const std::size_t k = group.slots[lane];
      double* vl = v + lane_base(lane - first * kLanes, kLanes * n);
      std::size_t dim = 0;
      if (k != kNone && slots_[k].live) {
        dim = slots_[k].dim;
        for (std::size_t i = 0; i < dim; ++i) {
          vl[kLanes * i] = b[slots_[k].offset + i];
        }
      }
      for (std::size_t i = dim; i < n; ++i) vl[kLanes * i] = 0.0;
    }
    kernels.cholesky_solve8(
        packed_.data() + group.packed + (shared_ ? 0 : first * block), n,
        lane_groups, shared_, v);
    for (std::size_t lane = first * kLanes; lane < (last + 1) * kLanes;
         ++lane) {
      const std::size_t k = group.slots[lane];
      if (k == kNone || !slots_[k].live) continue;
      const double* vl = v + lane_base(lane - first * kLanes, kLanes * n);
      for (std::size_t i = 0; i < slots_[k].dim; ++i) {
        x[slots_[k].offset + i] = vl[kLanes * i];
      }
    }
  }
}

Vector cholesky_solve(const Matrix& a, std::span<const double> b) {
  CholeskyFactor factor(a);
  Vector x(b.size());
  factor.solve(b, x);
  return x;
}

}  // namespace uoi::linalg
