#ifndef TDMATCH_SERVE_MMAP_SNAPSHOT_H_
#define TDMATCH_SERVE_MMAP_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/snapshot.h"
#include "util/mmap_file.h"
#include "util/result.h"
#include "util/status.h"

namespace tdmatch {
namespace serve {

/// \brief Zero-copy view over a memory-mapped snapshot file — the one
/// parser of the on-disk format SnapshotIo writes.
///
/// Open mmaps the file, validates the header, geometry, and trailing
/// CRC-32 (bad magic, version skew, foreign endianness, truncation,
/// corruption, hostile declared counts, payload sizes that overflow
/// narrow arithmetic, duplicate labels), indexes the labels as
/// string_views into the mapping, and exposes the f32 payload without
/// copying a single vector. Load cost is the CRC scan plus the label
/// index; the payload itself is demand-paged, and several QueryEngines
/// can share one mapping through the shared_ptr returned by Open. Every
/// serving engine is built from a view; SnapshotIo::Read copies one into
/// an in-memory Snapshot for the offline tools. A sharded engine build
/// ends with ReleasePayloadPages, so a serving epoch keeps only the
/// header and label pages of its mapping resident.
///
/// The view is immutable and safe for concurrent readers. Pointers and
/// string_views obtained from it are valid exactly as long as the view is
/// alive — hold the shared_ptr for as long as results circulate (the
/// serving hot-reload scheme retires old views only after the last
/// in-flight query drops its reference).
class SnapshotView {
 public:
  /// Maps and validates `path`. `verify_crc` runs the whole-file CRC-32
  /// (util::Crc32, slicing-by-8: about 37 ms of the ~57 ms open of the
  /// 53.8 MB tdbench serve_scan snapshot). It can be turned off when the
  /// caller has already verified the artifact (load becomes O(labels)
  /// instead of O(bytes)).
  static util::Result<std::shared_ptr<const SnapshotView>> Open(
      const std::string& path, bool verify_crc = true);

  const SnapshotMeta& meta() const { return meta_; }
  int dim() const { return static_cast<int>(dim_); }
  size_t size() const { return labels_.size(); }
  const std::string& path() const { return file_.path(); }
  size_t file_bytes() const { return file_.size(); }

  std::string_view label(size_t i) const { return labels_[i]; }
  const std::vector<std::string_view>& labels() const { return labels_; }

  /// Row index of `label`, or -1 when absent. O(1).
  int64_t FindRow(std::string_view label) const {
    auto it = index_.find(label);
    return it == index_.end() ? -1 : static_cast<int64_t>(it->second);
  }

  /// True when the payload is 4-byte aligned in the mapping (always the
  /// case for snapshots written by this codebase's SnapshotIo, which pads
  /// the pre-payload bytes; see SnapshotIo::kPadKey).
  bool aligned() const { return aligned_; }

  /// Row `i` in place — no copy. Only valid when aligned().
  const float* row(size_t i) const;

  /// Copies row `i` into `out` (dim() floats). Works for any alignment.
  void CopyRow(size_t i, float* out) const;

  /// The raw payload bytes (size() * dim() * 4). Valid for any alignment;
  /// useful with VectorMatrix::FromRawRows.
  const char* payload() const { return payload_; }

  /// Bytes of the first version-2 section tagged `tag`, as a zero-copy
  /// view into the mapping, or nullptr when absent (every version-1 file).
  const std::string_view* Section(std::string_view tag) const {
    for (const auto& s : sections_) {
      if (s.first == tag) return &s.second;
    }
    return nullptr;
  }
  const std::vector<std::pair<std::string_view, std::string_view>>& sections()
      const {
    return sections_;
  }

  /// Drops this process's resident pages of everything after the labels:
  /// the f32 payload and every section (MmapFile::ReleasePages, rounded
  /// inward). An engine build reads both once — the payload into its
  /// normalized matrices, the "ivfpq" section's lists and codes — and the
  /// CRC scan touched every byte, so without this the whole file stays
  /// resident for the life of the epoch. The header and the labels stay:
  /// every label lookup compares bytes there. Reading a released byte
  /// (a LabelVector row, a section) faults the same bytes back in, since
  /// SnapshotIo replaces files by rename and never rewrites one in place.
  void ReleasePayloadPages() const;

 private:
  SnapshotView() = default;

  util::MmapFile file_;
  SnapshotMeta meta_;
  uint32_t dim_ = 0;
  std::vector<std::string_view> labels_;
  std::unordered_map<std::string_view, uint32_t> index_;
  std::vector<std::pair<std::string_view, std::string_view>> sections_;
  const char* payload_ = nullptr;
  bool aligned_ = false;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_MMAP_SNAPSHOT_H_
