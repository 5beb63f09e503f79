// Flat byte serialization of CscMat for message passing.
//
// One matrix = one message: header (nrows, ncols, nnz) followed by the
// three CSC arrays. The on-wire size is what the traffic instrumentation
// records, so serialized bytes are the "communication volume" of the
// experiments.
#pragma once

#include <span>
#include <vector>

#include "common/payload.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_view.hpp"

namespace casp {

std::vector<std::byte> pack_csc(const CscMat& mat);
CscMat unpack_csc(const std::vector<std::byte>& buffer);

/// Pack straight into a transport payload (one allocation, no intermediate
/// buffer) for handle-forwarding sends. `prefix` words, if any, are written
/// ahead of the matrix — a caller's own small header; the matrix then
/// starts at byte prefix.size() * sizeof(Index), which keeps it 8-byte
/// aligned for unpack_csc_view on a subview.
Payload pack_csc_payload(const CscMat& mat,
                         std::span<const Index> prefix = {});

/// Borrow the CSC arrays directly from a packed payload — the zero-copy
/// receive path. The returned view shares ownership of the payload's
/// allocation, so it stays valid for the view's lifetime. Requires the
/// payload start to be 8-byte aligned (the wire format guarantees this for
/// whole messages and for allgather subviews: 24-byte header, 8-byte
/// elements, 8-byte length prefixes).
CscView unpack_csc_view(const Payload& payload);

/// On-wire size without building the buffer.
Bytes packed_size(const CscMat& mat);

}  // namespace casp
