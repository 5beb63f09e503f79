#include "svc/admission.hpp"

#include <sstream>

#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "summa/symbolic3d.hpp"
#include "vmpi/runtime.hpp"

namespace casp::svc {

AdmissionEstimate estimate_admission(const JobSpec& spec, const CscMat& a,
                                     const CscMat& b) {
  AdmissionEstimate est;

  // Scratch symbolic job: explicitly fault-free (admission must never be
  // perturbed by a tenant's chaos plan or by CASP_VMPI_FAULTS) and with an
  // unlimited budget so symbolic3d reports the maxima instead of throwing.
  SymbolicResult sym;
  vmpi::RunOptions scratch;
  scratch.faults = vmpi::FaultPlan{};
  vmpi::run(
      spec.ranks,
      [&](vmpi::Comm& world) {
        Grid3D grid(world, spec.layers);
        DistMat3D da = distribute_a_style(grid, a);
        DistMat3D db = distribute_b_style(grid, b);
        SummaOptions opts = spec.summa_options();
        SymbolicResult local =
            symbolic3d(grid, da.local, db.local, /*total_memory=*/0, opts);
        if (world.rank() == 0) sym = std::move(local);
      },
      scratch);

  obs::JobAdmission& adm = est.admission;
  adm.max_nnz_a = sym.max_nnz_a;
  adm.max_nnz_b = sym.max_nnz_b;
  adm.max_nnz_c = sym.max_nnz_c;
  adm.total_unmerged_nnz = sym.total_unmerged_nnz;

  const Bytes r = kBytesPerNonzero;
  adm.input_bytes =
      r * static_cast<Bytes>(sym.max_nnz_a + sym.max_nnz_b);
  // Unlimited budget: share 0 and Eq. (2) degenerates to b = 1.
  adm.per_process_share = spec.memory_bytes / static_cast<Bytes>(spec.ranks);
  adm.batches = eq2_batches(spec.memory_bytes, spec.ranks, sym.max_nnz_a,
                            sym.max_nnz_b, sym.max_nnz_c);
  adm.fits = adm.batches > 0;
  if (!adm.fits) {
    // Eq. (2) denominator M/p - r*(maxnnzA + maxnnzB) <= 0: the inputs
    // alone overflow the most loaded process; no batch count helps.
    std::ostringstream os;
    os << "admission: Eq. (2) denominator non-positive — per-process share "
       << adm.per_process_share << " B (M=" << spec.memory_bytes << " B / p="
       << spec.ranks << ") <= input footprint " << adm.input_bytes
       << " B (r=" << r << " B/nnz * (maxnnzA=" << adm.max_nnz_a
       << " + maxnnzB=" << adm.max_nnz_b
       << ")); batching cannot make the inputs fit";
    est.reason = os.str();
  }
  return est;
}

Bytes reservation_bytes(const JobSpec& spec, const obs::JobAdmission& a) {
  if (spec.memory_bytes > 0) return spec.memory_bytes;
  const Bytes r = kBytesPerNonzero;
  return static_cast<Bytes>(spec.ranks) * r *
         static_cast<Bytes>(a.max_nnz_a + a.max_nnz_b + a.max_nnz_c);
}

}  // namespace casp::svc
