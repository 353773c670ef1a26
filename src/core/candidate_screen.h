#ifndef LOCAT_CORE_CANDIDATE_SCREEN_H_
#define LOCAT_CORE_CANDIDATE_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace locat::core {

/// A candidate whose squared unit-space distance to an observation at the
/// same data size is below this is a near-duplicate and is never scored.
/// It is the smallest double whose sqrt is >= 0.05, one ulp below
/// 0.05 * 0.05, so `d2 < kNearDuplicateSq` decides exactly as
/// `sqrt(d2) < 0.05` without taking the root.
inline constexpr double kNearDuplicateSq = 0x1.47ae147ae147bp-9;

/// Row indices into a caller-owned array of rows, at most one per
/// distinct row: an open-addressing table with linear probing, at most
/// half full. Equality is memcmp, so the hash only places buckets and
/// never decides which copy is kept (the first inserted).
class RowSet {
 public:
  /// An empty set for up to `capacity` rows of `dim` doubles.
  RowSet(size_t capacity, size_t dim);
  /// Adds row `r` of `rows` (it starts at rows + r * dim) unless a
  /// bitwise-equal row is in; true when added. Rows in the set must keep
  /// their place and bytes until the next Reset.
  bool Insert(const double* rows, size_t r);

 private:
  std::vector<uint32_t> slots_;
  size_t mask_;
  size_t dim_;
};

/// Whether a candidate lies within kNearDuplicateSq of any observation,
/// decided exactly as kern::WeightedSquaredDistanceCols with unit weights
/// followed by `d2 < kNearDuplicateSq` would decide it, for candidates
/// that differ from one base row in a few coordinates.
///
/// The kernel folds each coordinate into a lane as fma(d, d, acc) from a
/// zero start, then adds the four lanes. Every step is monotone and every
/// operand is >= 0, so the distance is at least fl(d * d) of any one
/// coordinate: a single coordinate with fl(d * d) >= kNearDuplicateSq is
/// a witness that the observation is far. Each observation's witnesses
/// against the base row are found once, as a bitmask. A candidate that
/// kept one of them at the base value is far from that observation for
/// free; otherwise the coordinates it moved are tried, and only an
/// observation with no witness at all gets the full distance. A candidate
/// that moved m coordinates can keep no witness only of an observation
/// with at most m of them, so observations are scanned in ascending
/// witness count and the scan stops there.
class NearDuplicateScreen {
 public:
  /// A screen for candidates derived from `base` (`dim` <= 64 entries,
  /// copied), with room for `max_observations`.
  NearDuplicateScreen(const double* base, size_t dim,
                      size_t max_observations);
  /// Adds an observed unit (`dim` entries) unless a bitwise-equal one is
  /// in: a repeat's distance has its first copy's bits.
  void AddObservation(const double* unit);

  /// True when some observation's squared distance to `row` is below
  /// kNearDuplicateSq. `moved` has bit k set for every coordinate k
  /// where row[k] may differ from the base (a superset is fine).
  bool Near(const double* row, uint64_t moved);

 private:
  void SortByWitnessCount();

  size_t dim_;
  size_t max_observations_;
  std::vector<double> base_;
  /// Observation o's unit at rows_[o * dim_], its coordinate k at
  /// cols_[k * max_observations_ + o].
  std::vector<double> rows_;
  std::vector<double> cols_;
  /// Bit k of far_[o]: coordinate k alone puts observation o at least
  /// kNearDuplicateSq from the base.
  std::vector<uint64_t> far_;
  RowSet distinct_;
  /// The observations in ascending witness count, and for each count c
  /// the number of them with at most c witnesses; built by the first
  /// Near after an AddObservation.
  std::vector<uint32_t> by_count_;
  std::vector<uint32_t> up_to_count_;
  bool sorted_ = false;
  std::vector<uint32_t> open_;  // Near's scratch: observations not cleared
};

}  // namespace locat::core

#endif  // LOCAT_CORE_CANDIDATE_SCREEN_H_
