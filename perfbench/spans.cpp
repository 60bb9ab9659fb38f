#include <algorithm>
#include <chrono>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Spans::Spans(bool enabled) : enabled_(enabled), epoch_(steady_seconds()) {}

double Spans::now() const { return steady_seconds() - epoch_; }

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(&spans) {
  if (!spans.enabled_) return;
  id_ = static_cast<int>(spans.spans_.size());
  Span span;
  span.name = name;
  span.id = id_;
  span.parent = spans.open_.empty() ? -1 : spans.open_.back();
  span.start_s = spans.now();
  spans.spans_.push_back(std::move(span));
  spans.open_.push_back(id_);
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  spans_->spans_[static_cast<std::size_t>(id_)].end_s = spans_->now();
  spans_->open_.pop_back();
}

std::map<std::string, double> Spans::self_seconds() const {
  // Children nest strictly inside their parent (scopes are RAII on one
  // thread), so the covered part of a parent is the sum of its children.
  std::vector<double> self(spans_.size());
  for (const auto& span : spans_) {
    self[static_cast<std::size_t>(span.id)] += span.end_s - span.start_s;
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> out;
  for (const auto& span : spans_) {
    out[span.name] += self[static_cast<std::size_t>(span.id)];
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::fprintf(file,
                 "%s\n  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", span.id, span.parent, span.name.c_str(),
                 span.start_s, span.end_s);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<long>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  return 0.5 * (upper + *std::max_element(values.begin(), mid));
}

}  // namespace perfbench
