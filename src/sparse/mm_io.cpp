#include "sparse/mm_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace casp {

namespace {
std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Parse the number that starts at line[pos] after any spaces, tabs or
/// '\r', accepting a leading '+', and advance pos past it. False when no
/// number is there. One from_chars per field, where an istringstream per
/// entry line dominated reading large inputs.
template <typename T>
bool parse_field(std::string_view line, std::size_t& pos, T& out) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r'))
    ++pos;
  if (pos < line.size() && line[pos] == '+') {
    ++pos;
    if (pos < line.size() && line[pos] == '-') return false;
  }
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data() + pos, end, out);
  if (ec != std::errc()) return false;
  pos = static_cast<std::size_t>(ptr - line.data());
  return true;
}
}  // namespace

TripleMat read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    throw InvalidArgument("matrix market: empty input");

  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket")
    throw InvalidArgument("matrix market: missing %%MatrixMarket banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix" || format != "coordinate")
    throw InvalidArgument("matrix market: only 'matrix coordinate' supported");
  const bool pattern = field == "pattern";
  if (field != "real" && field != "integer" && !pattern)
    throw InvalidArgument("matrix market: unsupported field '" + field + "'");
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general")
    throw InvalidArgument("matrix market: unsupported symmetry '" + symmetry +
                          "'");

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  Index nrows = 0, ncols = 0, nnz = 0;
  {
    std::istringstream sizes(line);
    if (!(sizes >> nrows >> ncols >> nnz))
      throw InvalidArgument("matrix market: bad size line");
  }

  TripleMat mat(nrows, ncols);
  mat.reserve(symmetric ? 2 * nnz : nnz);
  for (Index k = 0; k < nnz; ++k) {
    if (!std::getline(in, line))
      throw InvalidArgument("matrix market: truncated entry list");
    std::size_t pos = 0;
    Index r = 0, c = 0;
    Value v = 1.0;
    if (!parse_field(line, pos, r) || !parse_field(line, pos, c))
      throw InvalidArgument("matrix market: bad entry line");
    if (!pattern && !parse_field(line, pos, v))
      throw InvalidArgument("matrix market: missing value");
    --r;
    --c;
    CASP_CHECK_MSG(r >= 0 && r < nrows && c >= 0 && c < ncols,
                   "matrix market: entry out of bounds");
    mat.push_back(r, c, v);
    if (symmetric && r != c) mat.push_back(c, r, v);
  }
  return mat;
}

TripleMat read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open matrix market file: " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const TripleMat& mat) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << mat.nrows() << " " << mat.ncols() << " " << mat.nnz() << "\n";
  out.precision(17);
  for (const Triple& t : mat.entries())
    out << (t.row + 1) << " " << (t.col + 1) << " " << t.val << "\n";
}

void write_matrix_market_file(const std::string& path, const TripleMat& mat) {
  std::ofstream out(path);
  if (!out) throw InvalidArgument("cannot open file for writing: " + path);
  write_matrix_market(out, mat);
}

}  // namespace casp
