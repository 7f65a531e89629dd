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

  size_t n_ = 0;
  size_t dim_ = 0;
  size_t nlist_ = 0;
  size_t pq_m_ = 0;
  std::vector<size_t> offsets_;        // nlist + 1
  const char* centroids_ = nullptr;    // nlist × dim f32
  const char* ids_ = nullptr;          // n i32, list order
  const char* codebook_ = nullptr;     // PQ only: pq_m × 256 × dim/pq_m f32
  /// PQ: n × pq_m codes in list order. A flat section's n × dim f32
  /// vectors are bounds-checked but never read.
  const char* codes_ = nullptr;
};

/// \brief Inverted-file ANN index (the FAISS "IVF-flat" / "IVF-PQ"
/// recipes): a k-means coarse quantizer partitions the normalized
/// candidate vectors into `nlist` cells; a query scores the `nprobe`
/// nearest cells' members only.
///
/// The index owns no copy of the vectors: its VectorMatrix, shared with
/// the engine's ExactIndex, stores the rows in list order, so the members
/// of cell c are the matrix positions [offsets[c], offsets[c+1]) and a
/// probe scans one contiguous stripe in place. Flat mode scores every
/// probed member with an exact cosine (the "re-rank" is exact by
/// construction). PQ mode (pq_m > 0) also stores 8-bit
/// product-quantization codes in list order — m bytes per member — scans
/// them with an ADC lookup-table kernel (simd::AdcScan), and
/// exact-re-ranks only the top pq_rerank ADC candidates against the
/// matrix rows. All dot products route through the runtime-dispatched
/// simd kernel layer.
///
/// Every selection is one streaming pass into a bounded match::TopKHeap:
/// the nprobe cells, the k results of a flat scan, and the PQ shortlist
/// and its exact re-rank. Nothing is gathered or sorted by id; the heap's
/// RankBefore order already breaks ties by lower candidate id, whatever
/// order the lists are scanned in.
class IvfIndex : public Index {
 public:
  /// Trains k-means (and the optional PQ codebooks) over `data` in id
  /// order, then keeps a list-order copy of it as matrix().
  IvfIndex(std::shared_ptr<const VectorMatrix> data, IvfOptions options);

  std::string name() const override { return pq_enabled() ? "ivf_pq" : "ivf"; }
  size_t size() const override { return data_->size(); }
  int dim() const override { return data_->dim(); }

  /// Bytes of the index structure: centroids, CSR offsets, list ids and,
  /// for PQ, codes and codebook — not the matrix rows, which are shared
  /// serving state (the exact index scans them).
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
  /// The candidate rows, in list order.
  const std::shared_ptr<const VectorMatrix>& matrix() const { return data_; }

  /// Members of cell `list` (diagnostics / tests).
  size_t ListSize(size_t list) const {
    return list_offsets_[list + 1] - list_offsets_[list];
  }

  /// Serializes the trained structure (centroids, CSR lists, PQ codebook
  /// and codes or the matrix rows) into the bounds-checked wire format that
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

  /// Adopts the members of `section` that `local_ids` maps here
  /// (local_ids[g] = local id of section candidate g, -1 = not here; empty
  /// = all, same ids). Centroids and PQ codebook are shared; each list
  /// keeps its mapped members in section order, PQ codes copied — so a
  /// shard probes the same cells and scores its members as the whole
  /// index would. `gather(order)` builds the matrix with local candidate
  /// order[p] at position p: a flat section's vectors are never read.
  static std::unique_ptr<IvfIndex> FromSection(
      const IvfSection& section, const std::vector<int32_t>& local_ids,
      const IvfOptions& options, const MatrixGather& gather);

 private:
  IvfIndex() = default;

  void Train();
  /// Trains the per-subspace codebooks and fills `codes` (n × pq_m, in
  /// candidate-id order) from the trainer's final assignments.
  void TrainPq(std::vector<uint8_t>* codes);
  /// Exact dot of every allowed member of the `probes` cells, pushed
  /// straight into a k-sized heap.
  std::vector<match::Match> SearchFlat(
      const float* query, size_t k, const std::vector<match::Match>& probes,
      const std::vector<char>* allowed) const;
  /// ADC score of every allowed member of the `probes` cells into a
  /// pq_rerank-sized heap (at least k), then the exact dots of that
  /// shortlist into a k-sized one.
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
  /// [list_offsets_[c], list_offsets_[c+1]) of data_ and of list_codes_.
  std::vector<size_t> list_offsets_;
  /// PQ mode: pq_m × 256 × (dim/pq_m) codebook and n × pq_m codes in
  /// list order. Empty in flat mode.
  std::vector<float> codebook_;
  std::vector<uint8_t> list_codes_;
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_IVF_INDEX_H_
