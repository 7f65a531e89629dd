#include "serve/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "serve/kmeans.h"
#include "util/byte_io.h"
#include "util/logging.h"
#include "util/simd/kernels.h"
#include "util/string_util.h"

namespace tdmatch {
namespace serve {

namespace {

/// PQ codebooks always hold 256 slots per subquantizer (the u8 code space)
/// even when fewer were trainable (n < 256): the ADC table then has a
/// fixed 256 stride, so any byte is a safe index and the AdcScan kernel
/// needs no bounds logic.
constexpr size_t kPqCodes = 256;

void AppendRaw(std::string* out, const void* data, size_t bytes) {
  out->append(reinterpret_cast<const char*>(data), bytes);
}

/// Sub-format version of the serialized index section ("ivfpq" tag).
constexpr uint32_t kIvfWireVersion = 1;

}  // namespace

IvfIndex::IvfIndex(std::shared_ptr<const VectorMatrix> data,
                   IvfOptions options)
    : data_(std::move(data)), options_(options) {
  const size_t n = data_->size();
  nlist_ = options_.nlist;
  if (nlist_ == 0) {
    nlist_ = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(std::max<size_t>(n, 1)))));
  }
  nlist_ = std::max<size_t>(1, std::min(nlist_, std::max<size_t>(n, 1)));
  if (options_.pq_m > 0) {
    TDM_CHECK_EQ(static_cast<size_t>(data_->dim()) % options_.pq_m, 0u)
        << "pq_m=" << options_.pq_m << " must divide dim=" << data_->dim();
  }
  set_nprobe(options_.nprobe);
  Train();
}

void IvfIndex::set_nprobe(size_t nprobe) {
  nprobe_ = std::max<size_t>(1, std::min(nprobe, nlist_));
}

void IvfIndex::Train() {
  const size_t n = data_->size();
  const size_t d = static_cast<size_t>(data_->dim());

  // Coarse quantizer: spherical k-means over the normalized members.
  KMeansOptions km;
  km.k = nlist_;
  km.iters = options_.kmeans_iters;
  km.seed = options_.seed;
  km.threads = options_.threads;
  km.spherical = true;
  KMeansResult coarse = TrainKMeans(
      [this](size_t i) { return data_->row(i); }, n, d, km);
  centroids_ = std::move(coarse.centroids);
  const std::vector<int32_t>& assign = coarse.assign;

  // PQ codebooks + per-candidate codes (in id order for now).
  std::vector<uint8_t> codes;
  if (pq_enabled()) TrainPq(&codes);

  // Inverted lists, flat CSR.
  list_offsets_.assign(nlist_ + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ++list_offsets_[static_cast<size_t>(assign[i]) + 1];
  }
  for (size_t c = 0; c < nlist_; ++c) {
    list_offsets_[c + 1] += list_offsets_[c];
  }
  list_ids_.resize(n);
  const size_t m = options_.pq_m;
  if (pq_enabled()) {
    list_codes_.resize(n * m);
  } else {
    list_vectors_.resize(n * d);
  }
  std::vector<size_t> fill = list_offsets_;
  for (size_t i = 0; i < n; ++i) {  // id order within each cell
    const size_t pos = fill[static_cast<size_t>(assign[i])]++;
    list_ids_[pos] = static_cast<int32_t>(i);
    if (pq_enabled()) {
      std::copy_n(codes.data() + i * m, m, list_codes_.data() + pos * m);
    } else {
      std::copy_n(data_->row(i), d, list_vectors_.data() + pos * d);
    }
  }
}

void IvfIndex::TrainPq(std::vector<uint8_t>* codes) {
  const size_t n = data_->size();
  const size_t d = static_cast<size_t>(data_->dim());
  const size_t m = options_.pq_m;
  const size_t ds = d / m;

  codebook_.assign(m * kPqCodes * ds, 0.0f);
  codes->assign(n * m, 0);
  if (n == 0) return;

  for (size_t s = 0; s < m; ++s) {
    KMeansOptions km;
    // Fewer points than code slots: train what's trainable, leave the
    // rest of the 256-slot stripe zeroed.
    km.k = std::min<size_t>(kPqCodes, n);
    km.iters = options_.pq_iters;
    // Distinct seed per subquantizer so subspaces don't share an init
    // sequence; still a pure function of the index seed.
    km.seed = options_.seed + 0x9e3779b9u * (s + 1);
    km.threads = options_.threads;
    km.spherical = false;  // Euclidean: codes minimize subspace distance
    const size_t off = s * ds;
    KMeansResult sub = TrainKMeans(
        [this, off](size_t i) { return data_->row(i) + off; }, n, ds, km);
    std::copy(sub.centroids.begin(), sub.centroids.end(),
              codebook_.begin() + s * kPqCodes * ds);
    // The trainer's final-pass assignments ARE the encodings (assignments
    // are taken against the returned centroids).
    for (size_t i = 0; i < n; ++i) {
      (*codes)[i * m + s] = static_cast<uint8_t>(sub.assign[i]);
    }
  }
}

size_t IvfIndex::MemoryBytes() const {
  return centroids_.size() * sizeof(float) +
         list_offsets_.size() * sizeof(size_t) +
         list_ids_.size() * sizeof(int32_t) + ListBytes();
}

size_t IvfIndex::ListBytes() const {
  if (pq_enabled()) {
    return list_codes_.size() * sizeof(uint8_t) +
           codebook_.size() * sizeof(float);
  }
  return list_vectors_.size() * sizeof(float);
}

std::vector<match::Match> IvfIndex::Search(
    const float* query, size_t k, const std::vector<char>* allowed) const {
  return SearchWithNprobe(query, k, nprobe_, allowed);
}

std::vector<match::Match> IvfIndex::SearchWithNprobe(
    const float* query, size_t k, size_t nprobe,
    const std::vector<char>* allowed) const {
  const size_t d = static_cast<size_t>(data_->dim());
  if (data_->size() == 0 || k == 0) return {};
  nprobe = std::max<size_t>(1, std::min(nprobe, nlist_));

  // Coarse quantizer: nearest nprobe cells by centroid dot product.
  std::vector<double> cell_scores(nlist_);
  for (size_t c = 0; c < nlist_; ++c) {
    cell_scores[c] = simd::Dot(query, centroids_.data() + c * d, d);
  }
  const std::vector<match::Match> probes =
      match::TopK::Select(cell_scores, nprobe);

  return pq_enabled() ? SearchPq(query, k, probes, allowed)
                      : SearchFlat(query, k, probes, allowed);
}

std::vector<match::Match> IvfIndex::SearchFlat(
    const float* query, size_t k, const std::vector<match::Match>& probes,
    const std::vector<char>* allowed) const {
  const size_t d = static_cast<size_t>(data_->dim());

  // Scan the probed lists: exact cosine on every member (the vectors are
  // full-precision, so the "re-rank" is exact by construction).
  std::vector<match::Match> gathered;
  for (const auto& probe : probes) {
    const size_t c = static_cast<size_t>(probe.index);
    for (size_t pos = list_offsets_[c]; pos < list_offsets_[c + 1]; ++pos) {
      const int32_t id = list_ids_[pos];
      if (allowed != nullptr && (*allowed)[static_cast<size_t>(id)] == 0) {
        continue;
      }
      const float dot = simd::Dot(query, list_vectors_.data() + pos * d, d);
      gathered.push_back(match::Match{id, dot});
    }
  }

  // Re-rank through the bounded heap of match::TopK, whose ties break by
  // lower position. Sorting the gather by candidate id first (cheap: the
  // gather is nprobe short id-sorted runs) makes that tie-break the
  // global id order — so IVF and exact return identical results whenever
  // the probed cells cover the exact top-k, ties included.
  std::sort(gathered.begin(), gathered.end(),
            [](const match::Match& a, const match::Match& b) {
              return a.index < b.index;
            });
  std::vector<double> scores;
  scores.reserve(gathered.size());
  for (const auto& g : gathered) scores.push_back(g.score);
  std::vector<match::Match> top = match::TopK::Select(scores, k);
  std::vector<match::Match> out;
  out.reserve(top.size());
  for (const auto& m : top) {
    out.push_back(
        match::Match{gathered[static_cast<size_t>(m.index)].index, m.score});
  }
  return out;
}

std::vector<match::Match> IvfIndex::SearchPq(
    const float* query, size_t k, const std::vector<match::Match>& probes,
    const std::vector<char>* allowed) const {
  const size_t d = static_cast<size_t>(data_->dim());
  const size_t m = options_.pq_m;
  const size_t ds = d / m;

  // ADC table: the dot of each query subspace against each codebook
  // entry. A member's approximate score is then m table lookups summed —
  // dot(query, reconstruction(code)) by linearity.
  std::vector<float> table(m * kPqCodes);
  for (size_t s = 0; s < m; ++s) {
    const float* q = query + s * ds;
    const float* cb = codebook_.data() + s * kPqCodes * ds;
    float* row = table.data() + s * kPqCodes;
    for (size_t j = 0; j < kPqCodes; ++j) {
      row[j] = simd::Dot(q, cb + j * ds, ds);
    }
  }

  // ADC scan of the probed lists: each cell's codes are one contiguous
  // stripe, scored in a single batched kernel call; the allowed filter
  // applies during the gather of the scored stripe.
  std::vector<match::Match> gathered;
  std::vector<float> approx;
  for (const auto& probe : probes) {
    const size_t c = static_cast<size_t>(probe.index);
    const size_t begin = list_offsets_[c];
    const size_t count = list_offsets_[c + 1] - begin;
    if (count == 0) continue;
    approx.resize(count);
    simd::AdcScan(list_codes_.data() + begin * m, count, m, table.data(),
                  approx.data());
    for (size_t j = 0; j < count; ++j) {
      const int32_t id = list_ids_[begin + j];
      if (allowed != nullptr && (*allowed)[static_cast<size_t>(id)] == 0) {
        continue;
      }
      gathered.push_back(match::Match{id, approx[j]});
    }
  }

  // Keep the best `pq_rerank` ADC candidates (at least k), then re-rank
  // those exactly against the shared full-precision matrix. Both
  // selections run over id-sorted input so TopK's position tie-break is
  // the global id order, matching ExactIndex on ties.
  std::sort(gathered.begin(), gathered.end(),
            [](const match::Match& a, const match::Match& b) {
              return a.index < b.index;
            });
  std::vector<double> approx_scores;
  approx_scores.reserve(gathered.size());
  for (const auto& g : gathered) approx_scores.push_back(g.score);
  const size_t rerank = std::max<size_t>(options_.pq_rerank, k);
  std::vector<match::Match> shortlist =
      match::TopK::Select(approx_scores, rerank);

  std::vector<int32_t> ids;
  ids.reserve(shortlist.size());
  for (const auto& s : shortlist) {
    ids.push_back(gathered[static_cast<size_t>(s.index)].index);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<double> exact_scores;
  exact_scores.reserve(ids.size());
  for (const int32_t id : ids) {
    exact_scores.push_back(
        simd::Dot(query, data_->row(static_cast<size_t>(id)), d));
  }
  std::vector<match::Match> top = match::TopK::Select(exact_scores, k);
  std::vector<match::Match> out;
  out.reserve(top.size());
  for (const auto& t : top) {
    out.push_back(match::Match{ids[static_cast<size_t>(t.index)], t.score});
  }
  return out;
}

std::string IvfIndex::Serialize(uint32_t labels_crc) const {
  const size_t n = data_->size();
  const size_t d = static_cast<size_t>(data_->dim());
  std::string out;
  out.reserve(64 + ListBytes() + centroids_.size() * sizeof(float) +
              list_ids_.size() * sizeof(int32_t) +
              list_offsets_.size() * sizeof(uint64_t));
  util::AppendU32(&out, kIvfWireVersion);
  util::AppendU32(&out, labels_crc);
  util::AppendU32(&out, static_cast<uint32_t>(d));
  util::AppendU64(&out, n);
  util::AppendU64(&out, nlist_);
  util::AppendU32(&out, static_cast<uint32_t>(options_.pq_m));
  AppendRaw(&out, centroids_.data(), centroids_.size() * sizeof(float));
  for (const size_t off : list_offsets_) util::AppendU64(&out, off);
  AppendRaw(&out, list_ids_.data(), list_ids_.size() * sizeof(int32_t));
  if (pq_enabled()) {
    AppendRaw(&out, codebook_.data(), codebook_.size() * sizeof(float));
    AppendRaw(&out, list_codes_.data(), list_codes_.size());
  } else {
    AppendRaw(&out, list_vectors_.data(),
              list_vectors_.size() * sizeof(float));
  }
  return out;
}

util::Result<IvfSection> IvfSection::Parse(std::string_view bytes,
                                           size_t n, size_t dim,
                                           uint32_t labels_crc) {
  using util::Status;
  using util::StrFormat;
  util::ByteCursor cur(bytes);

  uint32_t version = 0, crc = 0, dim32 = 0, pq_m32 = 0;
  uint64_t n64 = 0, nlist64 = 0;
  TDM_RETURN_NOT_OK(cur.ReadU32(&version));
  if (version != kIvfWireVersion) {
    return Status::IOError(
        StrFormat("ivf section: unsupported version %u", version));
  }
  TDM_RETURN_NOT_OK(cur.ReadU32(&crc));
  if (crc != labels_crc) {
    return Status::IOError(StrFormat(
        "ivf section: candidate fingerprint mismatch (section %08x, "
        "snapshot %08x) — index was built over a different candidate set",
        crc, labels_crc));
  }
  TDM_RETURN_NOT_OK(cur.ReadU32(&dim32));
  TDM_RETURN_NOT_OK(cur.ReadU64(&n64));
  TDM_RETURN_NOT_OK(cur.ReadU64(&nlist64));
  TDM_RETURN_NOT_OK(cur.ReadU32(&pq_m32));

  if (dim32 != dim) {
    return Status::IOError(
        StrFormat("ivf section: dim %u != snapshot dim %zu", dim32, dim));
  }
  if (n64 != n) {
    return Status::IOError(StrFormat(
        "ivf section: %llu vectors != snapshot %zu",
        static_cast<unsigned long long>(n64), n));
  }
  const size_t nlist = static_cast<size_t>(nlist64);
  if (nlist < 1 || nlist > std::max<size_t>(n, 1)) {
    return Status::IOError(
        StrFormat("ivf section: nlist %zu out of range for n=%zu", nlist, n));
  }
  const size_t m = pq_m32;
  if (m > 0 && (m > dim || dim % m != 0)) {
    return Status::IOError(
        StrFormat("ivf section: pq_m %zu does not divide dim %zu", m, dim));
  }

  IvfSection section;
  section.n_ = n;
  section.dim_ = dim;
  section.nlist_ = nlist;
  section.pq_m_ = m;
  TDM_RETURN_NOT_OK(
      cur.Skip(nlist * dim * sizeof(float), &section.centroids_));

  section.offsets_.resize(nlist + 1);
  for (size_t c = 0; c <= nlist; ++c) {
    uint64_t off = 0;
    TDM_RETURN_NOT_OK(cur.ReadU64(&off));
    section.offsets_[c] = static_cast<size_t>(off);
  }
  if (section.offsets_.front() != 0 || section.offsets_.back() != n) {
    return Status::IOError("ivf section: list offsets do not span [0, n)");
  }
  for (size_t c = 0; c < nlist; ++c) {
    if (section.offsets_[c] > section.offsets_[c + 1]) {
      return Status::IOError(
          StrFormat("ivf section: list offsets not monotone at cell %zu", c));
    }
  }

  TDM_RETURN_NOT_OK(cur.Skip(n * sizeof(int32_t), &section.ids_));
  std::vector<char> seen(n, 0);
  for (size_t pos = 0; pos < n; ++pos) {
    const int32_t id = section.id(pos);
    if (id < 0 || static_cast<size_t>(id) >= n || seen[id]) {
      return Status::IOError(StrFormat(
          "ivf section: candidate id %d out of range or duplicated", id));
    }
    seen[id] = 1;
  }

  if (m > 0) {
    TDM_RETURN_NOT_OK(
        cur.Skip(kPqCodes * dim * sizeof(float), &section.codebook_));
  }
  TDM_RETURN_NOT_OK(cur.Skip(n * section.member_bytes(), &section.payload_));
  if (cur.Remaining() != 0) {
    return Status::IOError(StrFormat(
        "ivf section: %zu trailing bytes after payload", cur.Remaining()));
  }
  return section;
}

int32_t IvfSection::id(size_t pos) const {
  int32_t id = 0;
  std::memcpy(&id, ids_ + pos * sizeof(int32_t), sizeof(id));
  return id;
}

util::Result<std::unique_ptr<IvfIndex>> IvfIndex::Deserialize(
    std::string_view bytes, std::shared_ptr<const VectorMatrix> data,
    uint32_t labels_crc, const IvfOptions& options) {
  TDM_ASSIGN_OR_RETURN(
      IvfSection section,
      IvfSection::Parse(bytes, data->size(),
                        static_cast<size_t>(data->dim()), labels_crc));
  std::vector<int32_t> identity(section.n_);
  std::iota(identity.begin(), identity.end(), 0);
  return FromSection(section, std::move(data), identity, options);
}

std::unique_ptr<IvfIndex> IvfIndex::FromSection(
    const IvfSection& section, std::shared_ptr<const VectorMatrix> data,
    const std::vector<int32_t>& local_ids, const IvfOptions& options) {
  const size_t d = section.dim_;
  const size_t rows = data->size();
  size_t mapped = 0;
  for (const int32_t local : local_ids) {
    TDM_CHECK(local < static_cast<int64_t>(rows)) << "id map past the matrix";
    if (local >= 0) ++mapped;
  }
  TDM_CHECK(static_cast<size_t>(data->dim()) == d &&
            local_ids.size() == section.n_ && mapped == rows)
      << "id map does not cover the rows of the matrix";
  const size_t nlist = section.nlist_;
  const size_t m = section.pq_m_;
  auto idx = std::unique_ptr<IvfIndex>(new IvfIndex(std::move(data)));
  idx->options_ = options;
  idx->options_.nlist = nlist;
  idx->options_.pq_m = m;
  idx->nlist_ = nlist;
  idx->set_nprobe(options.nprobe);
  idx->centroids_.resize(nlist * d);
  std::memcpy(idx->centroids_.data(), section.centroids_,
              idx->centroids_.size() * sizeof(float));

  char* payload = nullptr;
  if (m > 0) {
    idx->codebook_.resize(kPqCodes * d);
    std::memcpy(idx->codebook_.data(), section.codebook_,
                idx->codebook_.size() * sizeof(float));
    idx->list_codes_.resize(rows * m);
    payload = reinterpret_cast<char*>(idx->list_codes_.data());
  } else {
    idx->list_vectors_.resize(rows * d);
    payload = reinterpret_cast<char*>(idx->list_vectors_.data());
  }
  // Section ids are a permutation (Parse), so every mapped member is met
  // exactly once and the lists fill exactly `rows` slots.
  const size_t stride = section.member_bytes();
  idx->list_offsets_.assign(nlist + 1, 0);
  idx->list_ids_.reserve(rows);
  for (size_t c = 0; c < nlist; ++c) {
    for (size_t pos = section.offsets_[c]; pos < section.offsets_[c + 1];
         ++pos) {
      const int32_t local = local_ids[static_cast<size_t>(section.id(pos))];
      if (local < 0) continue;
      std::memcpy(payload + idx->list_ids_.size() * stride,
                  section.payload_ + pos * stride, stride);
      idx->list_ids_.push_back(local);
    }
    idx->list_offsets_[c + 1] = idx->list_ids_.size();
  }
  return idx;
}

}  // namespace serve
}  // namespace tdmatch
