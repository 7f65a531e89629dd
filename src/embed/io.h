#ifndef TDMATCH_EMBED_IO_H_
#define TDMATCH_EMBED_IO_H_

#include <string>

#include "embed/embedding_table.h"
#include "util/result.h"

namespace tdmatch {
namespace embed {

/// \brief Persistence for embedding tables in the classic word2vec text
/// format: a `<count> <dim>` header line followed by `<label> v1 .. vd`
/// lines. Labels containing spaces are supported by quoting rules below:
/// inner spaces are escaped as `\_` on write and unescaped on read.
///
/// The text format is the debug/interop path; production serving loads
/// the binary snapshot format instead (serve/snapshot.h, which also has
/// the text ↔ snapshot conversion helpers).
class EmbeddingIo {
 public:
  /// Writes the table; overwrites the file. Values carry max_digits10
  /// significant digits, so Load reads every float back bit for bit.
  static util::Status Save(const EmbeddingTable& table,
                           const std::string& path);

  /// Reads a table written by Save (or a real word2vec .txt file without
  /// escaped labels). Strict: a row whose value count disagrees with the
  /// header dim, or a file whose row count disagrees with the header
  /// count, is an InvalidArgument error, never a silent truncation.
  static util::Result<EmbeddingTable> Load(const std::string& path);
};

}  // namespace embed
}  // namespace tdmatch

#endif  // TDMATCH_EMBED_IO_H_
