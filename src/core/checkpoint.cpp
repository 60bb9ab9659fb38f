#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "support/error.hpp"

namespace uoi::core {

namespace {
constexpr const char* kMagic = "uoi-lasso-checkpoint v1";

[[noreturn]] void malformed(const std::string& detail) {
  throw uoi::support::IoError("malformed checkpoint: " + detail);
}
}  // namespace

FingerprintBuilder& FingerprintBuilder::add(std::uint64_t value) {
  // FNV-1a over the 8 bytes.
  for (int b = 0; b < 8; ++b) {
    state_ ^= (value >> (8 * b)) & 0xffULL;
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return add(bits);
}

std::size_t SelectionCheckpoint::completed_prefix() const {
  if (done.rows() == 0) return completed_bootstraps;
  for (std::size_t k = 0; k < done.rows(); ++k) {
    for (std::size_t j = 0; j < done.cols(); ++j) {
      if (done(k, j) == 0.0) return k;
    }
  }
  return done.rows();
}

std::string SelectionCheckpoint::to_text() const {
  std::ostringstream out;
  out.precision(17);
  out << kMagic << "\n";
  out << "fingerprint " << fingerprint << "\n";
  out << "completed " << completed_bootstraps << "\n";
  out << "q " << lambdas.size() << " p " << counts.cols() << "\n";
  out << "lambdas";
  for (const double l : lambdas) out << " " << l;
  out << "\n";
  for (std::size_t j = 0; j < counts.rows(); ++j) {
    const auto row = counts.row(j);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out << " ";
      out << row[i];
    }
    out << "\n";
  }
  if (done.rows() > 0) {
    out << "done " << done.rows() << "\n";
    for (std::size_t k = 0; k < done.rows(); ++k) {
      for (std::size_t j = 0; j < done.cols(); ++j) {
        if (j != 0) out << " ";
        out << (done(k, j) != 0.0 ? 1 : 0);
      }
      out << "\n";
    }
  }
  return out.str();
}

SelectionCheckpoint SelectionCheckpoint::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) malformed("magic line");

  SelectionCheckpoint out;
  std::string keyword;
  in >> keyword >> out.fingerprint;
  if (!in || keyword != "fingerprint") malformed("fingerprint");
  in >> keyword >> out.completed_bootstraps;
  if (!in || keyword != "completed") malformed("completed");
  std::size_t q = 0, p = 0;
  in >> keyword >> q;
  if (!in || keyword != "q") malformed("q");
  in >> keyword >> p;
  if (!in || keyword != "p") malformed("p");
  in >> keyword;
  if (!in || keyword != "lambdas") malformed("lambdas");
  out.lambdas.resize(q);
  for (auto& l : out.lambdas) in >> l;
  out.counts.resize(q, p);
  for (std::size_t j = 0; j < q; ++j) {
    for (std::size_t i = 0; i < p; ++i) in >> out.counts(j, i);
  }
  if (!in) malformed("truncated payload");
  // Optional trailing cell-completion section (absent in v1 files).
  if (in >> keyword) {
    if (keyword != "done") malformed("unexpected trailing section");
    std::size_t b1 = 0;
    in >> b1;
    if (!in) malformed("done header");
    out.done.resize(b1, q);
    for (std::size_t k = 0; k < b1; ++k) {
      for (std::size_t j = 0; j < q; ++j) in >> out.done(k, j);
    }
    if (!in) malformed("truncated done section");
  }
  return out;
}

void save_checkpoint(const std::string& path,
                     const SelectionCheckpoint& checkpoint) {
  const std::string temp = path + ".tmp";
  const std::string text = checkpoint.to_text();
#if defined(__unix__) || defined(__APPLE__)
  // Write + flush + fsync the temp file so its bytes are on stable
  // storage before the rename makes them visible under `path`.
  {
    std::FILE* f = std::fopen(temp.c_str(), "wb");
    if (f == nullptr) {
      throw uoi::support::IoError("cannot open for writing: " + temp);
    }
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool synced = ::fsync(::fileno(f)) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != text.size() || !flushed || !synced || !closed) {
      std::remove(temp.c_str());
      throw uoi::support::IoError("short or unsynced write to " + temp);
    }
  }
#else
  {
    std::ofstream f(temp, std::ios::trunc | std::ios::binary);
    if (!f) throw uoi::support::IoError("cannot open for writing: " + temp);
    f << text;
    f.flush();
    if (!f) throw uoi::support::IoError("short write to " + temp);
  }
#endif
  // Verify the bytes that actually landed before clobbering a good
  // checkpoint: a truncated or corrupted temp must never win the rename.
  {
    std::ifstream f(temp, std::ios::binary);
    std::ostringstream buffer;
    buffer << f.rdbuf();
    if (!f || buffer.str() != text) {
      std::remove(temp.c_str());
      throw uoi::support::IoError("checkpoint verification failed for " +
                                  temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    throw uoi::support::IoError("cannot rename checkpoint into place: " +
                                ec.message());
  }
#if defined(__unix__) || defined(__APPLE__)
  // Best effort: persist the rename itself by syncing the directory.
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
#endif
}

std::optional<SelectionCheckpoint> try_load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  try {
    auto checkpoint = SelectionCheckpoint::from_text(buffer.str());
    if (checkpoint.fingerprint != expected_fingerprint) return std::nullopt;
    return checkpoint;
  } catch (const uoi::support::IoError&) {
    return std::nullopt;  // corrupt checkpoint: restart from scratch
  }
}

}  // namespace uoi::core
