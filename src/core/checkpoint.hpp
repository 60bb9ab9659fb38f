#pragma once
// Checkpoint/restart for the UoI selection pass.
//
// On a large machine the selection phase (B1 bootstraps x q lambda fits)
// is hours of work; a node failure should not discard it. Because the
// resampling streams are deterministic functions of (seed, k), selection
// can resume at any bootstrap boundary given the accumulated selection
// counts. The checkpoint stores those counts plus a fingerprint of every
// option that influences them — a mismatched fingerprint means the file
// belongs to a different run and is ignored.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace uoi::core {

struct SelectionCheckpoint {
  std::uint64_t fingerprint = 0;
  std::size_t completed_bootstraps = 0;
  std::vector<double> lambdas;           ///< descending grid (q entries)
  uoi::linalg::Matrix counts;            ///< q x p selection counts

  /// Optional cell-completion map (B1 x q of 0/1) written by the UoI
  /// engine: after a shrink, completed (bootstrap, lambda) cells are
  /// scattered rather than a bootstrap prefix, and `counts` holds exactly
  /// the done cells' contributions.
  /// Empty means prefix semantics: the first `completed_bootstraps`
  /// bootstraps are fully counted. Files without this section parse with
  /// `done` empty, so v1 checkpoints stay readable.
  uoi::linalg::Matrix done;

  /// Longest run of leading bootstraps fully covered by this checkpoint:
  /// `completed_bootstraps` under prefix semantics, else the longest
  /// all-done prefix of `done`'s rows. The engine writes this as
  /// `completed_bootstraps` and rejects a file where the two disagree.
  [[nodiscard]] std::size_t completed_prefix() const;

  /// Serializes to the versioned text format.
  [[nodiscard]] std::string to_text() const;

  /// Parses; throws uoi::support::IoError on malformed input.
  static SelectionCheckpoint from_text(const std::string& text);
};

/// Writes atomically and durably: the temp file is flushed and fsync'd,
/// read back and verified byte-for-byte, and only then renamed into
/// place — a crash (or lying page cache) mid-write never corrupts an
/// existing checkpoint with a short or empty file.
void save_checkpoint(const std::string& path,
                     const SelectionCheckpoint& checkpoint);

/// Loads a checkpoint if the file exists, parses, and matches
/// `expected_fingerprint`; otherwise returns nullopt (a missing or
/// foreign checkpoint simply restarts from scratch).
[[nodiscard]] std::optional<SelectionCheckpoint> try_load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint);

/// Order-sensitive FNV-style fingerprint of the run configuration.
class FingerprintBuilder {
 public:
  FingerprintBuilder& add(std::uint64_t value);
  FingerprintBuilder& add(double value);
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace uoi::core
