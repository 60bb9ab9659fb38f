#pragma once
// Support sets (the sets of selected feature indices) and the intersection /
// union algebra at the heart of UoI (paper eqs. 3-4):
//
//   selection:  S_j = INTERSECT_k S_j^k   (feature compression)
//   estimation: S*  = UNION_l S_{j_l}     (feature expansion via averaging)

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace uoi::core {

/// An immutable sorted set of selected feature indices.
class SupportSet {
 public:
  SupportSet() = default;

  /// From arbitrary indices (sorted + deduplicated internally).
  explicit SupportSet(std::vector<std::size_t> indices);

  /// Indices i with |beta_i| > tolerance.
  static SupportSet from_beta(std::span<const double> beta,
                              double tolerance = 0.0);

  /// The full support {0, ..., p-1}.
  static SupportSet full(std::size_t p);

  [[nodiscard]] const std::vector<std::size_t>& indices() const noexcept {
    return indices_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  [[nodiscard]] bool empty() const noexcept { return indices_.empty(); }
  [[nodiscard]] bool contains(std::size_t i) const;

  /// Set intersection (eq. 3's Reduce step).
  [[nodiscard]] SupportSet intersect(const SupportSet& other) const;

  /// Set union (eq. 4's Reduce step).
  [[nodiscard]] SupportSet unite(const SupportSet& other) const;

  [[nodiscard]] bool is_subset_of(const SupportSet& other) const;

  /// 0/1 indicator of length p (used to reduce supports across ranks with
  /// an elementwise-min Allreduce: AND == min over {0,1}).
  [[nodiscard]] std::vector<double> indicator(std::size_t p) const;
  static SupportSet from_indicator(std::span<const double> indicator,
                                   double threshold = 0.5);

  [[nodiscard]] std::string to_string() const;

  bool operator==(const SupportSet& other) const = default;

 private:
  std::vector<std::size_t> indices_;
};

/// Intersection over a family of supports; the empty family yields the
/// full support over p features (neutral element of intersection).
[[nodiscard]] SupportSet intersect_all(std::span<const SupportSet> supports,
                                       std::size_t p);

/// Union over a family of supports (empty family -> empty support).
[[nodiscard]] SupportSet unite_all(std::span<const SupportSet> supports);

/// Selections a feature needs to enter a candidate support under the
/// (soft) intersection over `bootstraps` resamples:
/// max(1, ceil(fraction * bootstraps)); fraction 1 is eq. 3's strict
/// intersection. The 1e-12 absorbs the rounding of fraction * bootstraps.
[[nodiscard]] double intersection_threshold(double fraction,
                                            double bootstraps);

/// The candidate support of one row of selection counts: the features
/// selected at least intersection_threshold(fraction, bootstraps) times.
[[nodiscard]] SupportSet intersect_counts(std::span<const double> counts,
                                          double fraction,
                                          double bootstraps);

/// Deduplicates a family of supports, preserving first-occurrence order.
[[nodiscard]] std::vector<SupportSet> dedupe_supports(
    std::vector<SupportSet> supports);

}  // namespace uoi::core
