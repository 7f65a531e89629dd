#ifndef TDMATCH_SERVE_IVF_INDEX_H_
#define TDMATCH_SERVE_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/index.h"
#include "util/result.h"

namespace tdmatch {
namespace serve {

/// Build/search parameters of the IVF index.
struct IvfOptions {
  /// Number of k-means cells. 0 = auto: ceil(sqrt(n)), clamped to [1, n].
  size_t nlist = 0;
  /// Cells probed per query — the recall/latency knob. Higher nprobe scans
  /// more of the corpus: nprobe == nlist degenerates to an exact scan.
  /// Measure the trade-off with MeasureRecallAtK (bench/serve_qps sweeps
  /// it).
  size_t nprobe = 4;
  /// Lloyd iterations for the coarse quantizer.
  size_t kmeans_iters = 8;
  /// Seed for the k-means init (util::Rng); fixed seed ⇒ identical index.
  uint64_t seed = 42;
  /// Threads for k-means training (util::ThreadPool::ParallelFor). The
  /// trained index is identical for any thread count: assignments are a
  /// pure map and centroid updates accumulate sequentially in id order.
  size_t threads = 4;

  /// --- product quantization (the memory knob; 0 = off, IVF-flat) -------
  /// Subquantizer count m: the vector is split into m contiguous
  /// dim/m-sized subspaces, each encoded as the id of the nearest of 256
  /// per-subspace codebook centroids. The inverted lists then store m
  /// bytes per member instead of dim * 4 — a dim*4/m-fold compression of
  /// the list payload (amortizing the fixed 256 * dim * 4-byte codebook).
  /// Must divide dim. Queries scan the probed lists with a u8 ADC
  /// lookup-table pass and exact-re-rank the top candidates against the
  /// full-precision matrix, so recall degrades gracefully (see pq_rerank).
  size_t pq_m = 0;
  /// Lloyd iterations per subquantizer codebook.
  size_t pq_iters = 12;
  /// How many of the best ADC-scored candidates get the exact re-rank
  /// (clamped to >= k per query). The PQ recall/latency knob.
  size_t pq_rerank = 64;
};

/// \brief IvfIndex::Serialize output (a snapshot "ivfpq" section),
/// validated against one candidate set and read in place.
///
/// Parse checks everything before any byte is trusted: wire version,
/// candidate fingerprint, dim, member count, nlist and pq_m geometry, CSR
/// offsets that are monotone and span [0, n), list ids that permute
/// [0, n), and the exact payload length. Only the offsets are copied; the
/// arrays are read from `bytes`, which must outlive the section.
class IvfSection {
 public:
  /// `n`, `dim` and `labels_crc` describe the candidate set the section
  /// must have been built over (see IvfIndex::Serialize).
  static util::Result<IvfSection> Parse(std::string_view bytes, size_t n,
                                        size_t dim, uint32_t labels_crc);

 private:
  friend class IvfIndex;
  IvfSection() = default;

  /// Candidate id at list position `pos` (ids are unaligned in the bytes).
  int32_t id(size_t pos) const;
  /// Payload bytes per member: dim floats (flat) or pq_m codes (PQ).
  size_t member_bytes() const { return pq_m_ > 0 ? pq_m_ : dim_ * 4; }

  size_t n_ = 0;
  size_t dim_ = 0;
  size_t nlist_ = 0;
  size_t pq_m_ = 0;
  std::vector<size_t> offsets_;        // nlist + 1
  const char* centroids_ = nullptr;    // nlist × dim f32
  const char* ids_ = nullptr;          // n i32, list order
  const char* codebook_ = nullptr;     // PQ only: pq_m × 256 × dim/pq_m f32
  const char* payload_ = nullptr;      // n × member_bytes(), list order
};

/// \brief Inverted-file ANN index (the FAISS "IVF-flat" / "IVF-PQ"
/// recipes): a k-means coarse quantizer partitions the normalized
/// candidate vectors into `nlist` cells; a query scores the `nprobe`
/// nearest cells' members only.
///
/// Flat mode stores the member vectors copied into list order and scores
/// every probed member with an exact cosine (the "re-rank" is exact by
/// construction). PQ mode (pq_m > 0) stores 8-bit product-quantization
/// codes instead — m bytes per member — scans them with an ADC
/// lookup-table kernel (simd::AdcScan), and exact-re-ranks only the top
/// pq_rerank ADC candidates against the shared full-precision matrix.
///
/// Inverted lists are stored flat CSR-style (offsets + one contiguous id
/// array) with the member payload (vectors or codes) in list order, so a
/// probe scans one contiguous stripe of memory. All dot products route
/// through the runtime-dispatched simd kernel layer.
class IvfIndex : public Index {
 public:
  /// Builds the index (trains k-means + optional PQ codebooks, fills the
  /// inverted lists).
  IvfIndex(std::shared_ptr<const VectorMatrix> data, IvfOptions options);

  std::string name() const override { return pq_enabled() ? "ivf_pq" : "ivf"; }
  size_t size() const override { return data_->size(); }
  int dim() const override { return data_->dim(); }

  /// Bytes owned by the index structure itself (centroids, CSR lists,
  /// codes/codebook or copied vectors). Excludes the full-precision
  /// matrix, which is shared serving state (the exact index and the PQ
  /// re-rank read it; in the mmap serving path it is built once per
  /// snapshot for all indexes).
  size_t MemoryBytes() const override;

  /// Bytes of the per-member list payload only: n * dim * 4 for flat,
  /// n * m codes + the 256 * dim * 4 codebook for PQ. The compression
  /// the pq_m knob buys is flat ListBytes / PQ ListBytes.
  size_t ListBytes() const;

  /// Note: `allowed` filters within the probed cells only — allowed
  /// candidates living in unprobed cells are not considered. For small
  /// allowed sets use ExactIndex (QueryEngine::QueryFiltered does).
  std::vector<match::Match> Search(
      const float* query, size_t k,
      const std::vector<char>* allowed = nullptr) const override;

  /// Search with an explicit probe count (clamped to [1, nlist]) instead
  /// of the stored nprobe. Const and thread-safe: this is the per-query
  /// recall/latency override the serving auto-tuner drives, usable while
  /// other threads query concurrently (unlike set_nprobe).
  std::vector<match::Match> SearchWithNprobe(
      const float* query, size_t k, size_t nprobe,
      const std::vector<char>* allowed = nullptr) const;

  /// The recall knob; clamped to [1, nlist]. Safe between queries, not
  /// concurrently with them.
  void set_nprobe(size_t nprobe);
  size_t nprobe() const { return nprobe_; }
  size_t nlist() const { return nlist_; }
  bool pq_enabled() const { return options_.pq_m > 0; }
  const IvfOptions& options() const { return options_; }

  /// Members of cell `list` (diagnostics / tests).
  size_t ListSize(size_t list) const {
    return list_offsets_[list + 1] - list_offsets_[list];
  }

  /// Serializes the trained structure (centroids, CSR lists, PQ codebook
  /// and codes or flat vectors) into the bounds-checked wire format that
  /// Deserialize reads — the payload of a snapshot "ivfpq" section.
  /// `labels_crc` fingerprints the candidate set the index was built over
  /// (CRC-32 of the NUL-joined candidate labels); Deserialize refuses a
  /// section whose fingerprint does not match the candidates the engine
  /// resolved, so a stale or foreign section can never serve wrong ids.
  std::string Serialize(uint32_t labels_crc) const;

  /// Rebuilds an index from Serialize output over the same candidate
  /// matrix. Every count, offset, and id is validated against `data`
  /// before use (IvfSection::Parse; hostile sections are rejected with a
  /// descriptive error, never a crash). `nprobe`/`pq_rerank`/`threads`
  /// come from `options`; the trained structure comes from the bytes.
  static util::Result<std::unique_ptr<IvfIndex>> Deserialize(
      std::string_view bytes, std::shared_ptr<const VectorMatrix> data,
      uint32_t labels_crc, const IvfOptions& options);

  /// Adopts the members of `section` that `local_ids` maps onto rows of
  /// `data` (local_ids[g] = row of section candidate g, -1 = not here;
  /// every row must be mapped). Centroids and PQ codebook are shared;
  /// each list keeps its mapped members in section order, ids remapped,
  /// payload copied straight from the section bytes — so a shard probes
  /// the same cells and scores its members as the whole index would.
  static std::unique_ptr<IvfIndex> FromSection(
      const IvfSection& section, std::shared_ptr<const VectorMatrix> data,
      const std::vector<int32_t>& local_ids, const IvfOptions& options);

 private:
  explicit IvfIndex(std::shared_ptr<const VectorMatrix> data)
      : data_(std::move(data)) {}

  void Train();
  /// Trains the per-subspace codebooks and fills `codes` (n × pq_m, in
  /// candidate-id order) from the trainer's final assignments.
  void TrainPq(std::vector<uint8_t>* codes);
  std::vector<match::Match> SearchFlat(
      const float* query, size_t k, const std::vector<match::Match>& probes,
      const std::vector<char>* allowed) const;
  std::vector<match::Match> SearchPq(
      const float* query, size_t k, const std::vector<match::Match>& probes,
      const std::vector<char>* allowed) const;

  std::shared_ptr<const VectorMatrix> data_;
  IvfOptions options_;
  size_t nlist_ = 0;
  size_t nprobe_ = 1;
  /// nlist × dim, L2-normalized (spherical k-means).
  std::vector<float> centroids_;
  /// CSR inverted lists: members of cell c are positions
  /// [list_offsets_[c], list_offsets_[c+1]) of list_ids_ and of the list
  /// payload (list_vectors_ or list_codes_).
  std::vector<size_t> list_offsets_;
  std::vector<int32_t> list_ids_;
  /// Flat mode: member vectors copied into list order (n × dim): each
  /// probe scans a contiguous stripe instead of hopping through the
  /// original matrix. Empty in PQ mode.
  std::vector<float> list_vectors_;
  /// PQ mode: pq_m × 256 × (dim/pq_m) codebook and n × pq_m codes in
  /// list order. Empty in flat mode.
  std::vector<float> codebook_;
  std::vector<uint8_t> list_codes_;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_IVF_INDEX_H_
