#include "embed/io.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/string_util.h"

namespace tdmatch {
namespace embed {

namespace {

std::string EscapeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (c == ' ') {
      out += "\\_";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (size_t i = 0; i < label.size(); ++i) {
    if (label[i] == '\\' && i + 1 < label.size() && label[i + 1] == '_') {
      out.push_back(' ');
      ++i;
    } else {
      out.push_back(label[i]);
    }
  }
  return out;
}

}  // namespace

util::Status EmbeddingIo::Save(const EmbeddingTable& table,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::IOError("cannot open " + path);
  // max_digits10 significant digits make every float round-trip exactly
  // through Load; the stream default of 6 does not.
  out.precision(std::numeric_limits<float>::max_digits10);
  out << table.size() << " " << table.dim() << "\n";
  for (const auto& label : table.Labels()) {
    const std::vector<float>* vec = table.Get(label);
    out << EscapeLabel(label);
    for (float v : *vec) out << " " << v;
    out << "\n";
  }
  if (!out) return util::Status::IOError("write failed for " + path);
  return util::Status::OK();
}

util::Result<EmbeddingTable> EmbeddingIo::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return util::Status::InvalidArgument("bad header in " + path);
  }
  size_t count = 0;
  int dim = 0;
  {
    std::istringstream header(line);
    if (!(header >> count >> dim) || dim <= 0) {
      return util::Status::InvalidArgument("bad header in " + path);
    }
    std::string extra;
    if (header >> extra) {
      return util::Status::InvalidArgument(
          util::StrFormat("%s: header has trailing content '%s'",
                          path.c_str(), extra.c_str()));
    }
  }

  // One entry per line, parsed strictly against the header: a row whose
  // value count disagrees with `dim`, or a file whose row count disagrees
  // with `count`, is a descriptive error — never a silently truncated (or
  // misaligned) table. Blank lines are ignored, matching the writer's
  // trailing newline.
  EmbeddingTable table(dim);
  size_t rows = 0;
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<std::string> fields = util::SplitWhitespace(line);
    if (fields.empty()) continue;
    if (rows == count) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s:%zu: vocab size mismatch: header promises %zu entries but the "
          "file has more (extra row starts with '%s')",
          path.c_str(), lineno, count, fields[0].c_str()));
    }
    if (fields.size() != static_cast<size_t>(dim) + 1) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s:%zu: dimension mismatch for '%s': header dim is %d but the "
          "row has %zu values",
          path.c_str(), lineno, fields[0].c_str(), dim, fields.size() - 1));
    }
    std::vector<float> vec(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      const std::string& field = fields[static_cast<size_t>(d) + 1];
      char* end = nullptr;
      vec[static_cast<size_t>(d)] = std::strtof(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return util::Status::InvalidArgument(util::StrFormat(
            "%s:%zu: non-numeric value '%s' for '%s'", path.c_str(), lineno,
            field.c_str(), fields[0].c_str()));
      }
    }
    table.Put(UnescapeLabel(fields[0]), std::move(vec));
    ++rows;
  }
  if (rows != count) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: vocab size mismatch: header promises %zu entries, file has %zu",
        path.c_str(), count, rows));
  }
  return table;
}

}  // namespace embed
}  // namespace tdmatch
