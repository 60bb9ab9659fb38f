#include "core/support_set.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace uoi::core {

SupportSet::SupportSet(std::vector<std::size_t> indices)
    : indices_(std::move(indices)) {
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()),
                 indices_.end());
}

SupportSet SupportSet::from_beta(std::span<const double> beta,
                                 double tolerance) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < beta.size(); ++i) {
    if (std::abs(beta[i]) > tolerance) idx.push_back(i);
  }
  SupportSet out;
  out.indices_ = std::move(idx);  // already sorted and unique
  return out;
}

SupportSet SupportSet::full(std::size_t p) {
  SupportSet out;
  out.indices_.resize(p);
  for (std::size_t i = 0; i < p; ++i) out.indices_[i] = i;
  return out;
}

bool SupportSet::contains(std::size_t i) const {
  return std::binary_search(indices_.begin(), indices_.end(), i);
}

SupportSet SupportSet::intersect(const SupportSet& other) const {
  SupportSet out;
  std::set_intersection(indices_.begin(), indices_.end(),
                        other.indices_.begin(), other.indices_.end(),
                        std::back_inserter(out.indices_));
  return out;
}

SupportSet SupportSet::unite(const SupportSet& other) const {
  SupportSet out;
  std::set_union(indices_.begin(), indices_.end(), other.indices_.begin(),
                 other.indices_.end(), std::back_inserter(out.indices_));
  return out;
}

bool SupportSet::is_subset_of(const SupportSet& other) const {
  return std::includes(other.indices_.begin(), other.indices_.end(),
                       indices_.begin(), indices_.end());
}

std::vector<double> SupportSet::indicator(std::size_t p) const {
  std::vector<double> out(p, 0.0);
  for (const std::size_t i : indices_) {
    UOI_CHECK_DIMS(i < p, "support index exceeds feature count");
    out[i] = 1.0;
  }
  return out;
}

SupportSet SupportSet::from_indicator(std::span<const double> indicator,
                                      double threshold) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < indicator.size(); ++i) {
    if (indicator[i] > threshold) idx.push_back(i);
  }
  SupportSet out;
  out.indices_ = std::move(idx);
  return out;
}

std::string SupportSet::to_string() const {
  std::ostringstream oss;
  oss << "{";
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    if (i != 0) oss << ", ";
    oss << indices_[i];
  }
  oss << "}";
  return oss.str();
}

SupportSet intersect_all(std::span<const SupportSet> supports, std::size_t p) {
  SupportSet acc = SupportSet::full(p);
  for (const auto& s : supports) acc = acc.intersect(s);
  return acc;
}

SupportSet unite_all(std::span<const SupportSet> supports) {
  SupportSet acc;
  for (const auto& s : supports) acc = acc.unite(s);
  return acc;
}

double intersection_threshold(double fraction, double bootstraps) {
  return std::max(1.0, std::ceil(fraction * bootstraps - 1e-12));
}

SupportSet intersect_counts(std::span<const double> counts, double fraction,
                            double bootstraps) {
  const double threshold = intersection_threshold(fraction, bootstraps);
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] >= threshold) selected.push_back(i);
  }
  return SupportSet(std::move(selected));
}

std::vector<SupportSet> dedupe_supports(std::vector<SupportSet> supports) {
  std::vector<SupportSet> out;
  for (auto& s : supports) {
    if (std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace uoi::core
