// Benchmark inputs: generated from the workload seed, written as Matrix
// Market files (jobs name them as `file` sources, so the service reads
// them the way it reads user data), and the serial references every
// finished job is checked against.
#pragma once

#include <map>
#include <set>
#include <string>

#include "apps/mcl.hpp"
#include "sparse/csc_mat.hpp"

namespace bench {

/// One input matrix: its file and the matrix as read back from that file.
struct Input {
  std::string path;
  casp::CscMat a;
};

/// What an input is generated from.
struct InputRecipe {
  enum class Kind { kRmat, kProtein, kEr };
  Kind kind = Kind::kRmat;
  int scale = 0;          ///< kRmat: 2^scale vertices
  double per_col = 0.0;   ///< kRmat edge factor / kEr nonzeros per column
  casp::Index n = 0;      ///< kProtein / kEr dimension
};

/// Largest protein family generated. The generator's default (512) lets a
/// few huge families dominate: over seeds 1-8 the A^2 flops of the n=20k
/// network ranged 43M-79M, a seed-to-seed spread wider than the
/// benchmark's bounds. At 128 they range 4.8M-6.2M.
inline constexpr casp::Index kProteinMaxFamily = 128;

/// Generates the matrix for `recipe` from `seed`, writes it under `dir` as
/// `<name>.mtx`, and reads it back.
Input make_input(const std::string& dir, const std::string& name,
                 const InputRecipe& recipe, std::uint64_t seed);

/// Serial references, keyed by input name.
struct References {
  std::map<std::string, casp::CscMat> square;  ///< reference_multiply(A, A)
  std::map<std::string, casp::Index> triangles;
  std::map<std::string, casp::MclResult> mcl;
};

/// What the workloads need checked: which inputs get which reference.
struct ReferenceNeeds {
  std::set<std::string> square;
  std::set<std::string> triangles;
  std::map<std::string, casp::MclParams> mcl;
};

/// Computes every needed reference, one thread per reference.
References compute_references(const std::map<std::string, Input>& inputs,
                              const ReferenceNeeds& needs);

/// The equality the repository's tests use: same shape and structure,
/// values within 1e-9 (tests/test_util.hpp expect_mat_near).
bool same_matrix(const casp::CscMat& got, const casp::CscMat& want);

/// MCL agreement as tests/apps/test_mcl.cpp checks it: equal cluster
/// counts and pair agreement above 0.999.
bool same_clustering(const casp::MclResult& got, const casp::MclResult& want);

}  // namespace bench
