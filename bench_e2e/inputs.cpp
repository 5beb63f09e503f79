#include "inputs.hpp"

#include <cmath>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "apps/triangle.hpp"
#include "gen/er.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "kernels/reference.hpp"
#include "sparse/mm_io.hpp"

namespace bench {

using casp::CscMat;
using casp::Index;

Input make_input(const std::string& dir, const std::string& name,
                 const InputRecipe& recipe, std::uint64_t seed) {
  CscMat m;
  switch (recipe.kind) {
    case InputRecipe::Kind::kRmat: {
      casp::RmatParams p;
      p.scale = recipe.scale;
      p.edge_factor = recipe.per_col;
      p.seed = seed;
      m = casp::generate_rmat(p);
      break;
    }
    case InputRecipe::Kind::kProtein: {
      casp::ProteinParams p;
      p.n = recipe.n;
      p.max_family = kProteinMaxFamily;
      p.seed = seed;
      m = casp::generate_protein_similarity(p).mat;
      break;
    }
    case InputRecipe::Kind::kEr:
      m = casp::generate_er_square(recipe.n, recipe.per_col, seed);
      break;
  }
  Input in;
  in.path = dir + "/" + name + ".mtx";
  casp::write_matrix_market_file(in.path, m.to_triples());
  in.a = CscMat::from_triples(casp::read_matrix_market_file(in.path));
  return in;
}

References compute_references(const std::map<std::string, Input>& inputs,
                              const ReferenceNeeds& needs) {
  References refs;
  // Pre-create every slot so the worker threads only write their own.
  std::vector<std::function<void()>> tasks;
  for (const std::string& name : needs.square) {
    CscMat& slot = refs.square[name];
    const CscMat& a = inputs.at(name).a;
    tasks.emplace_back(
        [&slot, &a] { slot = casp::reference_multiply<casp::PlusTimes>(a, a); });
  }
  for (const std::string& name : needs.triangles) {
    Index& slot = refs.triangles[name];
    const CscMat& a = inputs.at(name).a;
    tasks.emplace_back([&slot, &a] { slot = casp::count_triangles_serial(a); });
  }
  for (const auto& [name, params] : needs.mcl) {
    casp::MclResult& slot = refs.mcl[name];
    const CscMat& a = inputs.at(name).a;
    const casp::MclParams p = params;
    tasks.emplace_back(
        [&slot, &a, p] { slot = casp::mcl_cluster_serial(a, p); });
  }
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> workers;
  workers.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    workers.emplace_back([&tasks, &errors, i] {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return refs;
}

bool same_matrix(const CscMat& got, const CscMat& want) {
  if (got.nrows() != want.nrows() || got.ncols() != want.ncols() ||
      got.nnz() != want.nnz())
    return false;
  // Sort copies only when a side is unsorted (the service sorts its final
  // output, so the 100 MB products are normally compared in place).
  CscMat gs, ws;
  if (!got.columns_sorted()) {
    gs = got;
    gs.sort_columns();
  }
  if (!want.columns_sorted()) {
    ws = want;
    ws.sort_columns();
  }
  const CscMat& g = got.columns_sorted() ? got : gs;
  const CscMat& w = want.columns_sorted() ? want : ws;
  const auto gp = g.colptr(), wp = w.colptr();
  const auto gr = g.rowids(), wr = w.rowids();
  const auto gv = g.vals(), wv = w.vals();
  for (std::size_t j = 0; j < gp.size(); ++j)
    if (gp[j] != wp[j]) return false;
  for (std::size_t k = 0; k < gr.size(); ++k) {
    if (gr[k] != wr[k]) return false;
    if (!(std::fabs(gv[k] - wv[k]) <= 1e-9)) return false;
  }
  return true;
}

namespace {

double pairs(double n) { return n * (n - 1.0) / 2.0; }

}  // namespace

bool same_clustering(const casp::MclResult& got, const casp::MclResult& want) {
  if (got.num_clusters != want.num_clusters ||
      got.cluster_of.size() != want.cluster_of.size())
    return false;
  // Pair agreement from the contingency table: pairs split differently by
  // the two labelings are those together in exactly one of them.
  std::map<Index, double> in_got, in_want;
  std::map<std::pair<Index, Index>, double> in_both;
  for (std::size_t v = 0; v < got.cluster_of.size(); ++v) {
    in_got[got.cluster_of[v]] += 1.0;
    in_want[want.cluster_of[v]] += 1.0;
    in_both[{got.cluster_of[v], want.cluster_of[v]}] += 1.0;
  }
  double same_got = 0.0, same_want = 0.0, same_both = 0.0;
  for (const auto& [id, n] : in_got) same_got += pairs(n);
  for (const auto& [id, n] : in_want) same_want += pairs(n);
  for (const auto& [ids, n] : in_both) same_both += pairs(n);
  const double total = pairs(static_cast<double>(got.cluster_of.size()));
  if (total == 0.0) return true;
  const double disagree = same_got + same_want - 2.0 * same_both;
  return 1.0 - disagree / total > 0.999;
}

}  // namespace bench
