// Runtime-dispatched SIMD kernels for the float32 filter engine.
//
// The pivot-table bulk filter (src/core/pivot_table.h) burns almost all
// of the table indexes' query CPU, and at the paper's dimensionalities
// nearly every row dies on the filter, not on verification -- so filter
// throughput *is* query throughput.  This module supplies the kernels
// that sweep the derived float32 filter columns 4-16 lanes at a time:
//
//   filter_sweep          contiguous column slab -> survivor index list
//   filter_sweep_gather   per-row-pivot (EPT) form: the query value is
//                         gathered per row via a parallel index column
//   refine / refine_gather  later pivot slots narrowing a survivor list
//   *_multi               batch forms: the same cells evaluated for
//                         several queries per load (block-major engine)
//
// One implementation set exists per SimdLevel (scalar, AVX-512, NEON).
// The level is resolved ONCE, at first use: the widest set the CPU
// supports, overridable with the PMI_SIMD environment knob
// ("scalar" | "avx512" | "neon" | "auto").  An x86 CPU without AVX-512
// resolves to scalar, which the compiler auto-vectorizes for the build's
// target (-march=native by default); hand-written 8-lane kernels did not
// beat that by 10% across bench_micro_scan's pivots x selectivity
// matrix.  Every level computes exactly the same per-element float
// predicate
//
//   keep(i)  <=>  fabsf(col[i] - q) <= r        (IEEE-754 binary32)
//
// so survivor lists are bit-identical at every dispatch level -- the
// vector paths only change how many lanes evaluate it per cycle
// (tests/simd_filter_test.cc fuzzes this across levels).
//
// Exactness contract: the kernels themselves return the exact double
// answer.  Each ExactSlot carries two float radii: the wide one
// (ConservativeFilterRadius) is passed by every row that passes the
// double test, and the narrow one (CertificateFilterRadius) is passed
// only by rows that do.  A row that the f32 test cannot settle either
// way falls back to the double column inside the kernel, so every mask
// and survivor list equals the double predicate row for row
// (src/core/pivot_table.h).  See the derivations at
// ConservativeFilterRadius and CertificateFilterRadius below.

#ifndef PMI_CORE_SIMD_H_
#define PMI_CORE_SIMD_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace pmi {

/// Kernel implementation tiers, narrowest to widest.  Scalar is the
/// kernel set of every CPU without one of the vector tiers below.
enum class SimdLevel : uint8_t {
  kScalar = 0,  ///< portable C++ (still auto-vectorizable by the compiler)
  kNeon = 1,    ///< AArch64 NEON, 4 float lanes
  kAvx512 = 2,  ///< x86 AVX-512 F/BW/DQ/VL, 16 float lanes + compress-store
};

/// Human-readable level name ("scalar", "avx512", ...).
const char* SimdLevelName(SimdLevel level);

/// True when `level` is both compiled in and supported by this CPU.
bool SimdLevelSupported(SimdLevel level);

/// Every level SimdLevelSupported() accepts on this build and CPU,
/// narrowest first; scalar is always present.  Tests and benches that
/// force each level through PMI_SIMD iterate this list.
std::vector<SimdLevel> SupportedSimdLevels();

/// One pivot slot's worth of filter inputs for the exact mask kernels:
/// the f32 filter column with its wide/narrow radii, and the f64 column
/// + exact radius the ambiguous rows fall back to.  The kernels'
/// contract is that the produced mask equals the exact double predicate
/// fabs(cold[i] - qd) <= rd for every row -- the f32 side is only the
/// fast path (see the two-sided radius derivation below).
struct ExactSlot {
  const float* colf = nullptr;   ///< f32 filter column (block base)
  const double* cold = nullptr;  ///< f64 column (same base)
  float qf = 0;                  ///< FilterValue(qd)
  float rw = 0;                  ///< wide radius: double-pass => f32-pass
  float rn = 0;                  ///< narrow radius: f32-pass => double-pass
  double qd = 0;                 ///< exact query value
  double rd = 0;                 ///< exact radius
};

/// Per-row-pivot (EPT) form: the query value for row i is
/// qf_pool[idx[i]] / qd_pool[idx[i]].
struct ExactSlotGather {
  const float* colf = nullptr;
  const double* cold = nullptr;
  const uint32_t* idx = nullptr;  ///< pool-index column (block base)
  const float* qf_pool = nullptr;
  const double* qd_pool = nullptr;
  float rw = 0;
  float rn = 0;
  double rd = 0;
};

/// Queries per multi-kernel call.  The batch entry points hand the
/// kernels at most this many queries at a time (FilterBlockMulti tiles
/// larger batches), which bounds the kernels' per-query scratch (lane
/// registers, ambiguity flags) at a compile-time constant and keeps one
/// tile's mask rows inside a few cache lines per row chunk.
inline constexpr size_t kMultiQueryTile = 16;

/// Kernel table for one dispatch level.  Two kernel families cover the
/// two survivor-density regimes of a filter cascade:
///
///   dense  -- 0/1 byte masks over a whole block: mask_sweep produces
///             them, mask_and narrows them against further columns
///             (contiguous, lane-parallel, f32 traffic), compact turns
///             the final mask into ascending indices;
///   sparse -- refine_f64* narrows an explicit survivor index list in
///             place against the double columns (touches only
///             survivors; a sparse gather pulls the whole cache line
///             anyway, so f32 would save nothing there).
///
/// PivotTable switches from dense to sparse once the survivor count
/// drops below a fraction of the block -- a strategy choice only; every
/// kernel produces the exact double-predicate decision for each row, so
/// the final survivor set and order are bit-identical regardless of
/// level or path.
///
/// The vector paths may store up to kSurvWriteSlack garbage indices
/// past the returned count: survivor buffers need that much extra
/// capacity beyond `count`.
struct SimdOps {
  SimdLevel level = SimdLevel::kScalar;

  /// Dense-path profitability: a block stays on the mask-AND path while
  /// survivors * dense_divisor >= block rows.  0 disables the dense path
  /// -- on the scalar level a whole-block re-sweep never beats the
  /// branch-free survivor walk, while the vector levels narrow 4-16
  /// lanes per cycle contiguously.  The gather (per-row-pivot) form has
  /// its own divisor because a level may vectorize only the contiguous
  /// kernels (NEON: no gather hardware), in which case whole-block
  /// gather re-sweeps would cost more than the survivor walk ever does.
  unsigned dense_divisor = 0;
  unsigned dense_divisor_gather = 0;

  /// keep[i] = (fabs(cold[i] - qd) <= rd) ? 1 : 0 for i < count, decided
  /// through the two-sided f32 test with f64 fallback on ambiguity;
  /// returns the number of set bytes.
  size_t (*mask_sweep)(const ExactSlot& s, size_t count, uint8_t* keep);
  size_t (*mask_sweep_gather)(const ExactSlotGather& s, size_t count,
                              uint8_t* keep);

  /// keep[i] &= exact predicate; returns the surviving count.
  size_t (*mask_and)(const ExactSlot& s, size_t count, uint8_t* keep);
  size_t (*mask_and_gather)(const ExactSlotGather& s, size_t count,
                            uint8_t* keep);

  /// Multi-query sweeps, the register-level half of the block-major
  /// batch engine: evaluate the exact predicate of `nq` queries
  /// (1 <= nq <= kMultiQueryTile) over the SAME contiguous cells --
  /// slots[qi].colf / .cold must all point at one column block -- in a
  /// single pass, so one cell load serves every query in the tile.
  /// Query qi's 0/1 mask bytes land at keep + qi * keep_stride and its
  /// survivor count in counts[qi].  Each mask row equals what mask_sweep
  /// would produce for that query alone (the exact double predicate), so
  /// the batch engine inherits the single-query exactness contract
  /// unchanged -- the two-sided rounding argument needs no new analysis.
  void (*mask_sweep_multi)(const ExactSlot* slots, size_t nq, size_t count,
                           uint8_t* keep, size_t keep_stride, size_t* counts);
  void (*mask_sweep_gather_multi)(const ExactSlotGather* slots, size_t nq,
                                  size_t count, uint8_t* keep,
                                  size_t keep_stride, size_t* counts);

  /// surv[0..ret) = ascending i < count with keep[i] != 0.
  size_t (*compact)(const uint8_t* keep, size_t count, uint32_t* surv);

  /// Narrows surv[0..n) in place against a double column (exact
  /// predicate, order preserved); returns the new count.
  size_t (*refine_f64)(const double* col, double q, double r, uint32_t* surv,
                       size_t n);
  size_t (*refine_f64_gather)(const double* col, const uint32_t* idx,
                              const double* q_of_pivot, double r,
                              uint32_t* surv, size_t n);
};

/// Scratch slack the vector compaction stores may write past the
/// survivor count (one full AVX-512 register of lanes).
inline constexpr size_t kSurvWriteSlack = 16;

/// The kernel table in use.  Resolved once (CPU detection + PMI_SIMD) on
/// first call; subsequent calls are a plain load.
const SimdOps& SimdDispatch();

/// The level SimdDispatch() resolved to.
SimdLevel SimdLevelInUse();

/// Re-resolves the dispatch table from PMI_SIMD + CPU support.  For
/// tests and benchmarks that force levels mid-process; NOT thread-safe
/// against concurrent scans -- call only while no queries run.
void ReinitSimdDispatch();

/// Derived float32 copy of a double filter cell.  The plain binary32
/// cast is monotone (x <= y implies float(x) <= float(y)), which is what
/// the conservatism argument below needs; the clamp keeps out-of-range
/// doubles from hitting the undefined out-of-range double->float
/// conversion and compresses huge distances onto FLT_MAX, which only
/// ever *shrinks* float differences, i.e. errs toward keeping rows.
inline float FilterValue(double v) {
  constexpr double kMax = double(std::numeric_limits<float>::max());
  if (v > kMax) return std::numeric_limits<float>::max();
  if (v < -kMax) return -std::numeric_limits<float>::max();
  return static_cast<float>(v);  // round-to-nearest; NaN stays NaN
}

/// Widened float radius making the float filter a strict superset of the
/// double test.  Guarantee: for any finite doubles x (cell) and q (query
/// value) with |q| <= qmax_abs and any radius r, if the exact test
/// fabs(x - q) <= r holds in double arithmetic, then
/// fabsf(FilterValue(x) - FilterValue(q)) <= ConservativeFilterRadius(...)
/// holds in float arithmetic.
///
/// Derivation: a double survivor has |x - q| <= r(1 + 2^-52), so
/// |x| <= |q| + r + eps.  The two casts move each operand by at most
/// 2^-24 of its magnitude (the clamp only moves values toward each
/// other), and the float subtraction adds one more 2^-24 relative
/// rounding, for a total extra slack under 2^-23 (|q| + r) plus a
/// denormal-sized absolute term.  We budget 2^-22 (|q| + r) + 1e-40 --
/// twice the bound -- then round the float conversion up one ulp.  A
/// too-wide radius only admits a few more ambiguous rows for the f64
/// fallback to settle; a too-tight one would change query answers, so
/// all rounding errs wide.
inline float ConservativeFilterRadius(double qmax_abs, double r) {
  if (!(r >= 0)) return -1.0f;  // negative/NaN radius prunes everything
  const double bound = r + std::ldexp(qmax_abs + r, -22) + 1e-40;
  if (!(bound <= double(std::numeric_limits<float>::max()))) {
    return std::numeric_limits<float>::infinity();
  }
  return std::nextafterf(static_cast<float>(bound),
                         std::numeric_limits<float>::infinity());
}

/// The narrow side of the two-sided filter: a float radius such that
/// fabsf(X - Q) <= CertificateFilterRadius(...) *proves* the exact test
/// fabs(x - q) <= r holds in double arithmetic -- provided |X| <
/// FLT_MAX (an unclamped cell; the kernels check that lane-wise, since
/// a clamped X hides an arbitrarily larger x).  Rows between the narrow
/// and wide radii are "ambiguous" and fall back to the double column.
/// On continuous data that band is nearly empty.  On integer distances
/// with an integer radius (Words, Synthetic) it is not: a row exactly on
/// |x - q| = r lands in it whenever x and q are exact in f32, since the
/// narrow radius sits below r, and such rows are common.  So the AVX-512
/// kernels settle ambiguous rows in the 16-row chunk that finds them,
/// against the same chunk of the double column (NEON re-passes the
/// block once any row is ambiguous).
///
/// Derivation mirrors ConservativeFilterRadius with the casting slack
/// subtracted instead of added: |x - q| <= S + 2^-23 (|q| + r) + denorm
/// for S = fabsf(X - Q), so S <= r - slack implies the double test.
/// Budgeting 2^-22 (|q| + r) + 1e-40 again leaves 2x margin, and the
/// final float conversion rounds down one ulp.  Degenerate cases
/// (negative/NaN/zero-leftover radius, query beyond float range) return
/// -1: nothing certifies, everything ambiguous falls back to f64 --
/// slower, never wrong.
inline float CertificateFilterRadius(double qmax_abs, double r) {
  if (!(r >= 0) || !(qmax_abs <= double(std::numeric_limits<float>::max()))) {
    return -1.0f;
  }
  const double rn = r - std::ldexp(qmax_abs + r, -22) - 1e-40;
  if (!(rn > 0)) return -1.0f;
  const double capped =
      std::min(rn, double(std::numeric_limits<float>::max()));
  return std::nextafterf(static_cast<float>(capped),
                         -std::numeric_limits<float>::infinity());
}

/// Read-prefetch hint (no-op where unsupported).  Used by the batched
/// verification paths to pull survivor objects toward L1 before the
/// BoundedDistance loop touches them.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/2);
#else
  (void)p;
#endif
}

/// Minimal aligned allocator so the filter columns start on cache-line
/// boundaries (64-byte-aligned slabs keep the 16-lane loads split-free).
template <typename T, std::size_t kAlign = 64>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(kAlign));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// 64-byte-aligned float column, the storage type of the filter columns.
using FilterColumn = std::vector<float, AlignedAllocator<float, 64>>;

}  // namespace pmi

#endif  // PMI_CORE_SIMD_H_
