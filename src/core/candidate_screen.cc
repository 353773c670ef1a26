#include "core/candidate_screen.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "math/kern/kern.h"

namespace locat::core {

RowSet::RowSet(size_t capacity, size_t dim)
    : slots_(std::bit_ceil(2 * capacity + 1), UINT32_MAX),
      mask_(slots_.size() - 1),
      dim_(dim) {}

bool RowSet::Insert(const double* rows, size_t r) {
  const double* row = rows + r * dim_;
  // The words' sum, then murmur3's finalizer to spread it over the
  // buckets.
  uint64_t h = 0;
  for (size_t k = 0; k < dim_; ++k) h += std::bit_cast<uint64_t>(row[k]);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  for (;; ++h) {
    uint32_t& slot = slots_[h & mask_];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(r);
      return true;
    }
    if (std::memcmp(rows + slot * dim_, row, dim_ * sizeof(double)) == 0) {
      return false;
    }
  }
}

NearDuplicateScreen::NearDuplicateScreen(const double* base, size_t dim,
                                         size_t max_observations)
    : dim_(dim),
      max_observations_(max_observations),
      base_(base, base + dim),
      rows_(dim * max_observations),
      cols_(dim * max_observations),
      distinct_(max_observations, dim),
      open_(max_observations) {
  assert(dim <= 64);
  far_.reserve(max_observations);
}

void NearDuplicateScreen::AddObservation(const double* unit) {
  const size_t o = far_.size();
  assert(o < max_observations_);
  double* row = rows_.data() + o * dim_;
  std::copy(unit, unit + dim_, row);
  if (!distinct_.Insert(rows_.data(), o)) return;
  uint64_t far = 0;
  for (size_t k = 0; k < dim_; ++k) {
    cols_[k * max_observations_ + o] = row[k];
    const double d = base_[k] - row[k];
    far |= static_cast<uint64_t>(d * d >= kNearDuplicateSq) << k;
  }
  far_.push_back(far);
  sorted_ = false;
}

void NearDuplicateScreen::SortByWitnessCount() {
  // A counting sort, stable in insertion order.
  up_to_count_.assign(66, 0);
  for (const uint64_t far : far_) ++up_to_count_[std::popcount(far) + 1];
  for (size_t c = 1; c < up_to_count_.size(); ++c) {
    up_to_count_[c] += up_to_count_[c - 1];
  }
  by_count_.resize(far_.size());
  std::vector<uint32_t> next(up_to_count_.begin(), up_to_count_.end() - 1);
  for (size_t o = 0; o < far_.size(); ++o) {
    by_count_[next[std::popcount(far_[o])]++] = static_cast<uint32_t>(o);
  }
  // up_to_count_[c]: observations with at most c witnesses.
  up_to_count_.erase(up_to_count_.begin());
  sorted_ = true;
}

bool NearDuplicateScreen::Near(const double* row, uint64_t moved) {
  // An observation with a witness the candidate kept at the base value
  // is far; the rest stay open. Only those with no more witnesses than
  // moved coordinates can be open.
  assert(dim_ == 64 || (moved >> dim_) == 0);
  if (!sorted_) SortByWitnessCount();
  const size_t n = up_to_count_[static_cast<size_t>(std::popcount(moved))];
  size_t open = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t o = by_count_[j];
    open_[open] = o;
    open += (far_[o] & ~moved) == 0;
  }
  // The moved coordinates, ascending, each clearing the open observations
  // it is a witness for.
  for (uint64_t m = moved; m != 0 && open != 0; m &= m - 1) {
    const size_t k = static_cast<size_t>(std::countr_zero(m));
    const double c = row[k];
    const double* col = cols_.data() + k * max_observations_;
    size_t kept = 0;
    for (size_t j = 0; j < open; ++j) {
      const uint32_t o = open_[j];
      const double d = c - col[o];
      open_[kept] = o;
      kept += !(d * d >= kNearDuplicateSq);
    }
    open = kept;
  }
  // No witness: the full distance decides. With unit weights the cols
  // kernel folds fma(1 * d, d, acc), and 1 * d == d, so SquaredDistance
  // has its bits.
  for (size_t j = 0; j < open; ++j) {
    const double* obs = rows_.data() + open_[j] * dim_;
    if (math::kern::SquaredDistance(row, obs, dim_) < kNearDuplicateSq) {
      return true;
    }
  }
  return false;
}

}  // namespace locat::core
