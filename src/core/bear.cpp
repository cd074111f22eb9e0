#include "core/bear.hpp"

#include "common/timer.hpp"
#include "solver/dense_lu.hpp"

namespace bepi {

Status BearSolver::Preprocess(const Graph& g) {
  Timer timer;
  preprocessed_ = false;

  MemoryBudget budget(options_.memory_budget_bytes);
  DecompositionOptions dopts;
  dopts.restart_prob = options_.restart_prob;
  dopts.hub_ratio = options_.hub_ratio;
  BEPI_ASSIGN_OR_RETURN(dec_, BuildDecomposition(g, dopts, &budget));

  // The step BePI avoids: dense inversion of the n2 x n2 Schur complement.
  // Check the budget before allocating (this is where Bear dies on large
  // graphs in the paper). The inversion pipeline holds the packed LU
  // factors and the growing inverse simultaneously, so its peak is two
  // dense n2 x n2 matrices.
  const std::uint64_t dense_bytes = 2 * static_cast<std::uint64_t>(dec_.n2) *
                                    static_cast<std::uint64_t>(dec_.n2) *
                                    sizeof(real_t);
  BEPI_RETURN_IF_ERROR(budget.Charge(dense_bytes, "dense S^{-1}"));
  if (dec_.n2 > 0) {
    BEPI_ASSIGN_OR_RETURN(DenseLu lu, DenseLu::Factor(dec_.schur.ToDense()));
    schur_inverse_ = lu.Inverse();
  } else {
    schur_inverse_ = DenseMatrix();
  }
  inverse_perm_ = InversePermutation(dec_.perm);
  preprocess_seconds_ = timer.Seconds();
  preprocessed_ = true;
  return Status::Ok();
}

Result<Vector> BearSolver::Query(index_t seed, QueryStats* stats) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  if (seed < 0 || seed >= dec_.n) {
    return Status::OutOfRange("seed out of range");
  }
  return Solve(seed, nullptr, stats);
}

Result<Vector> BearSolver::QueryVector(const Vector& q,
                                       QueryStats* stats) const {
  if (!preprocessed_) return Status::FailedPrecondition("Preprocess not called");
  if (static_cast<index_t>(q.size()) != dec_.n) {
    return Status::InvalidArgument("personalization vector length mismatch");
  }
  return Solve(0, &q, stats);
}

Result<Vector> BearSolver::Solve(index_t seed, const Vector* q,
                                 QueryStats* stats) const {
  Timer timer;
  const index_t n1 = dec_.n1, n2 = dec_.n2, n3 = dec_.n3;
  SlicedVector r = dec_.SliceRestart(seed, q, options_.restart_prob);

  // Identical block elimination, but r2 = S^{-1} q2~ is a direct product;
  // the restart slices become the back-substitution's right-hand sides.
  Vector q2_tilde = r.v2;
  if (n1 > 0) {
    const Vector h11inv_cq1 = dec_.ApplyH11Inverse(r.v1);
    dec_.h21.MultiplyAdd(-1.0, h11inv_cq1, &q2_tilde);
  }
  r.v2 = n2 > 0 ? schur_inverse_.Multiply(q2_tilde) : Vector();
  if (n1 > 0) {
    dec_.h12.MultiplyAdd(-1.0, r.v2, &r.v1);
    r.v1 = dec_.ApplyH11Inverse(r.v1);
  }
  if (n3 > 0) {
    if (n1 > 0) dec_.h31.MultiplyAdd(-1.0, r.v1, &r.v3);
    if (n2 > 0) dec_.h32.MultiplyAdd(-1.0, r.v2, &r.v3);
  }
  if (stats != nullptr) {
    *stats = QueryStats();
    stats->seconds = timer.Seconds();
  }
  return Unslice(r, inverse_perm_);
}

std::uint64_t BearSolver::PreprocessedBytes() const {
  return dec_.CommonBytes() + schur_inverse_.ByteSize();
}

}  // namespace bepi
