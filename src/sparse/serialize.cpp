#include "sparse/serialize.hpp"

#include <cstdint>
#include <cstring>

#include "common/error.hpp"

namespace casp {

namespace {
struct Header {
  Index nrows;
  Index ncols;
  Index nnz;
};

template <typename T>
void append(std::vector<std::byte>& buf, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  const auto* p = reinterpret_cast<const std::byte*>(data);
  buf.insert(buf.end(), p, p + count * sizeof(T));
}

template <typename T>
void read(const std::vector<std::byte>& buf, std::size_t& offset, T* data,
          std::size_t count) {
  CASP_CHECK(offset + count * sizeof(T) <= buf.size());
  if (count != 0) std::memcpy(data, buf.data() + offset, count * sizeof(T));
  offset += count * sizeof(T);
}
}  // namespace

Bytes packed_size(const CscMat& mat) {
  return sizeof(Header) +
         (static_cast<Bytes>(mat.ncols()) + 1) * sizeof(Index) +
         static_cast<Bytes>(mat.nnz()) * (sizeof(Index) + sizeof(Value));
}

namespace {
std::vector<std::byte> pack_with_prefix(const CscMat& mat,
                                        std::span<const Index> prefix) {
  std::vector<std::byte> buf;
  buf.reserve(prefix.size() * sizeof(Index) + packed_size(mat));
  append(buf, prefix.data(), prefix.size());
  const Header h{mat.nrows(), mat.ncols(), mat.nnz()};
  append(buf, &h, 1);
  append(buf, mat.colptr().data(), mat.colptr().size());
  append(buf, mat.rowids().data(), mat.rowids().size());
  append(buf, mat.vals().data(), mat.vals().size());
  return buf;
}
}  // namespace

std::vector<std::byte> pack_csc(const CscMat& mat) {
  return pack_with_prefix(mat, {});
}

Payload pack_csc_payload(const CscMat& mat, std::span<const Index> prefix) {
  return Payload::wrap(pack_with_prefix(mat, prefix));
}

namespace {

/// Identity of a payload generation already validated by this thread: the
/// wire checks depend only on the buffer address, its length and the
/// header, so a repeat viewing of the same generation (SUMMA unpacks each
/// forwarded block once per stage it participates in) can skip straight to
/// view construction. Per-thread because ranks are threads and each sees
/// its own working set of in-flight payloads.
struct ValidatedBuffer {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  Header header{};
};

constexpr std::size_t kValidatedRing = 8;
thread_local ValidatedBuffer g_validated[kValidatedRing];
thread_local std::size_t g_validated_next = 0;

bool already_validated(const std::byte* data, std::size_t size,
                       const Header& h) {
  for (const ValidatedBuffer& v : g_validated) {
    if (v.data == data && v.size == size && v.header.nrows == h.nrows &&
        v.header.ncols == h.ncols && v.header.nnz == h.nnz)
      return true;
  }
  return false;
}

void note_validated(const std::byte* data, std::size_t size,
                    const Header& h) {
  g_validated[g_validated_next] = ValidatedBuffer{data, size, h};
  g_validated_next = (g_validated_next + 1) % kValidatedRing;
}

}  // namespace

CscView unpack_csc_view(const Payload& payload) {
  CASP_CHECK_MSG(payload.size() >= sizeof(Header),
                 "unpack_csc_view: payload shorter than header");
  Header h{};
  std::memcpy(&h, payload.data(), sizeof(Header));
  const auto ncolptr = static_cast<std::size_t>(h.ncols) + 1;
  const auto nnz = static_cast<std::size_t>(h.nnz);
  const std::byte* base = payload.data();
  static_assert(std::is_trivially_copyable_v<Index> &&
                std::is_trivially_copyable_v<Value>);
  // Strict path on first contact with this payload generation only; the
  // memoized path skips the re-validation of a buffer this thread already
  // vetted (the checks are pure in (address, size, header)).
  if (!already_validated(base, payload.size(), h)) {
    CASP_CHECK_MSG(payload.size() ==
                       sizeof(Header) + ncolptr * sizeof(Index) +
                           nnz * (sizeof(Index) + sizeof(Value)),
                   "unpack_csc_view: size does not match header");
    // The arrays are read in place, so the wire layout must satisfy Index /
    // Value alignment: 24-byte header then 8-byte elements keeps every
    // array 8-aligned as long as the payload itself starts aligned.
    CASP_CHECK_MSG(
        reinterpret_cast<std::uintptr_t>(base) % alignof(Value) == 0,
        "unpack_csc_view: payload is not 8-byte aligned");
    const auto* check_colptr =
        reinterpret_cast<const Index*>(base + sizeof(Header));
    CASP_CHECK_MSG(ncolptr > 0 && check_colptr[0] == 0 &&
                       check_colptr[ncolptr - 1] == h.nnz,
                   "unpack_csc_view: corrupt colptr");
    note_validated(base, payload.size(), h);
  }
  const auto* colptr = reinterpret_cast<const Index*>(base + sizeof(Header));
  const auto* rowids = colptr + ncolptr;
  const auto* vals = reinterpret_cast<const Value*>(rowids + nnz);
  return CscView(h.nrows, h.ncols, {colptr, ncolptr}, {rowids, nnz},
                 {vals, nnz}, payload);
}

CscMat unpack_csc(const std::vector<std::byte>& buffer) {
  std::size_t offset = 0;
  Header h{};
  read(buffer, offset, &h, 1);
  std::vector<Index> colptr(static_cast<std::size_t>(h.ncols) + 1);
  std::vector<Index> rowids(static_cast<std::size_t>(h.nnz));
  std::vector<Value> vals(static_cast<std::size_t>(h.nnz));
  read(buffer, offset, colptr.data(), colptr.size());
  read(buffer, offset, rowids.data(), rowids.size());
  read(buffer, offset, vals.data(), vals.size());
  CASP_CHECK_MSG(offset == buffer.size(), "unpack_csc: trailing bytes");
  return CscMat(h.nrows, h.ncols, std::move(colptr), std::move(rowids),
                std::move(vals));
}

}  // namespace casp
