// Pivot-based filtering and validation (Lemmas 1-4, Sections 2.3).
//
// These free functions are the entire pruning tool-box of the surveyed
// indexes.  Each maps one-to-one to a lemma in the paper; the unit tests
// verify soundness against brute-force distance evaluation.

#ifndef PMI_CORE_FILTERING_H_
#define PMI_CORE_FILTERING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pmi {

/// Lemma 1 (pivot filtering), single-object form.  Returns true when
/// phi(o) lies outside the search region SR(q) = prod_i [d(q,pi)-r,
/// d(q,pi)+r], proving d(q,o) > r, so o can be pruned.
inline bool PrunedByPivots(const double* phi_o, const double* phi_q,
                           uint32_t l, double r) {
  for (uint32_t i = 0; i < l; ++i) {
    if (std::fabs(phi_o[i] - phi_q[i]) > r) return true;
  }
  return false;
}

/// Lemma 1 lower bound: max_i |d(q,pi) - d(o,pi)| <= d(q,o).  This is the
/// Linf distance in pivot space; used for best-first orderings.
inline double PivotLowerBound(const double* phi_o, const double* phi_q,
                              uint32_t l) {
  double best = 0;
  for (uint32_t i = 0; i < l; ++i) {
    best = std::max(best, std::fabs(phi_o[i] - phi_q[i]));
  }
  return best;
}

/// Lemma 1, region form: a lower bound of d(q,o) over all o whose phi(o)
/// lies in the minimum bounding box (MBB) [lo, hi]:
/// max_i dist(phi_q[i], [lo_i, hi_i]).  Zero when phi(q) is inside.
inline double MbbLowerBound(const double* lo, const double* hi,
                            const double* phi_q, uint32_t l) {
  double best = 0;
  for (uint32_t i = 0; i < l; ++i) {
    if (phi_q[i] < lo[i]) {
      best = std::max(best, lo[i] - phi_q[i]);
    } else if (phi_q[i] > hi[i]) {
      best = std::max(best, phi_q[i] - hi[i]);
    }
  }
  return best;
}

/// PivotLowerBound over a float-stored mapping (PM-tree, OmniR-tree).  A
/// caller prunes only when the bound exceeds r by its float-rounding
/// slack, so rounding can never drop a true result.
inline double PivotLowerBound(const float* phi_o, const double* phi_q,
                              uint32_t l) {
  double best = 0;
  for (uint32_t i = 0; i < l; ++i) {
    best = std::max(best, std::fabs(double(phi_o[i]) - phi_q[i]));
  }
  return best;
}

/// MbbLowerBound over a float-stored MBB, less the slack eps.
inline double MbbLowerBound(const float* lo, const float* hi,
                            const double* phi_q, uint32_t l, double eps) {
  double best = 0;
  for (uint32_t i = 0; i < l; ++i) {
    if (phi_q[i] < lo[i]) {
      best = std::max(best, double(lo[i]) - phi_q[i]);
    } else if (phi_q[i] > hi[i]) {
      best = std::max(best, phi_q[i] - double(hi[i]));
    }
  }
  return std::max(0.0, best - eps);
}

/// Lemma 2 (range-pivot filtering) lower bound for a ball region with
/// center distance d(q,c) and covering radius R: max(d(q,c) - R, 0).
inline double BallLowerBound(double d_q_center, double region_r) {
  return std::max(0.0, d_q_center - region_r);
}

/// Lemma 3 (double-pivot filtering).  The hyperplane partition of pivot pi
/// (objects nearer pi than pj) can be pruned when
/// d(q,pi) - d(q,pj) > 2r.
inline bool PrunedByHyperplane(double d_q_pi, double d_q_pj, double r) {
  return d_q_pi - d_q_pj > 2.0 * r;
}

/// Lemma 4 (pivot validation).  o is guaranteed to satisfy d(q,o) <= r
/// when some pivot pi has d(o,pi) <= r - d(q,pi); the verification
/// distance computation can then be skipped.
inline bool ValidatedByPivot(double d_o_pi, double d_q_pi, double r) {
  return d_o_pi <= r - d_q_pi;
}

}  // namespace pmi

#endif  // PMI_CORE_FILTERING_H_
