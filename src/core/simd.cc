#include "src/core/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMI_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define PMI_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace pmi {
namespace {

constexpr float kFltMax = std::numeric_limits<float>::max();

// ---------------------------------------------------------------------------
// Scalar kernels.  Without hand-written lanes the two-sided f32 trick
// buys nothing -- three predicates per row cost more than one double
// compare -- so the scalar level works the double columns directly: the
// exact predicate in one branch-free compare per cell, the same cascade
// shape (and cost) as the pre-SIMD engine.  The f32 columns are the
// vector levels' fast path only.  Results are identical by definition:
// every level's mask equals the double predicate row for row.
// ---------------------------------------------------------------------------

size_t MaskSweepScalar(const ExactSlot& s, size_t count, uint8_t* keep) {
  const double* __restrict col = s.cold;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k = std::fabs(col[i] - s.qd) <= s.rd;
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskSweepGatherScalar(const ExactSlotGather& s, size_t count,
                             uint8_t* keep) {
  const double* __restrict col = s.cold;
  const uint32_t* __restrict idx = s.idx;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k = std::fabs(col[i] - s.qd_pool[idx[i]]) <= s.rd;
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskAndScalar(const ExactSlot& s, size_t count, uint8_t* keep) {
  const double* __restrict col = s.cold;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k =
        keep[i] & static_cast<uint8_t>(std::fabs(col[i] - s.qd) <= s.rd);
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t MaskAndGatherScalar(const ExactSlotGather& s, size_t count,
                           uint8_t* keep) {
  const double* __restrict col = s.cold;
  const uint32_t* __restrict idx = s.idx;
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t k =
        keep[i] &
        static_cast<uint8_t>(std::fabs(col[i] - s.qd_pool[idx[i]]) <= s.rd);
    keep[i] = k;
    n += k;
  }
  return n;
}

size_t CompactScalar(const uint8_t* __restrict keep, size_t count,
                     uint32_t* __restrict surv) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    surv[n] = static_cast<uint32_t>(i);
    n += keep[i];
  }
  return n;
}

size_t RefineF64Scalar(const double* __restrict col, double q, double r,
                       uint32_t* __restrict surv, size_t n) {
  size_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q) <= r;
  }
  return m;
}

size_t RefineF64GatherScalar(const double* __restrict col,
                             const uint32_t* __restrict idx,
                             const double* __restrict q_of_pivot, double r,
                             uint32_t* __restrict surv, size_t n) {
  size_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q_of_pivot[idx[i]]) <= r;
  }
  return m;
}

// Scalar multi-query sweeps: without vector registers there is nothing
// to share per load (the block's double column is L1-resident either
// way), so the multi form is simply the single-query sweep per tile
// query -- same predicate, same masks, minimal code.
void MaskSweepMultiScalar(const ExactSlot* slots, size_t nq, size_t count,
                          uint8_t* keep, size_t keep_stride, size_t* counts) {
  for (size_t qi = 0; qi < nq; ++qi) {
    counts[qi] = MaskSweepScalar(slots[qi], count, keep + qi * keep_stride);
  }
}

void MaskSweepGatherMultiScalar(const ExactSlotGather* slots, size_t nq,
                                size_t count, uint8_t* keep,
                                size_t keep_stride, size_t* counts) {
  for (size_t qi = 0; qi < nq; ++qi) {
    counts[qi] =
        MaskSweepGatherScalar(slots[qi], count, keep + qi * keep_stride);
  }
}

#if PMI_SIMD_X86

// ---------------------------------------------------------------------------
// AVX-512: 16 float lanes, native mask compares and compress-stores.
// Every mask kernel walks the block in 16-row chunks and decides each
// chunk's rows in the chunk itself: the two-sided f32 test certifies the
// rows inside the narrow radius and drops the rows outside the wide one;
// the ambiguous rows in between (frequent on integer-valued data, where
// rows sit exactly on |x - q| = r) are settled against the f64 column by
// two 8-lane double compares.  A ragged last chunk runs the same code
// under a lane mask, so every row of every kernel takes one path.
// Compaction turns 16 mask bytes into a __mmask16 and compress-stores the
// iota+base indices in one instruction.  In the refine kernels the write
// cursor never passes the read cursor, so in-place narrowing is safe.
// ---------------------------------------------------------------------------

#define PMI_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

// Lanes [0, rem) of a chunk; all 16 once rem >= 16.
inline __mmask16 ChunkLanes(size_t rem) {
  return rem >= 16 ? __mmask16(0xffff) : __mmask16((1u << rem) - 1);
}

inline size_t PopCount(__mmask16 k) {
  return static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(k)));
}

// The lanes of `amb` whose f64 cells pass fabs(cold[l] - q[l]) <= rd:
// two 8-lane compares that load only those lanes.
PMI_AVX512_TARGET inline __mmask16 ExactLanes(const double* cold, __m512d qlo,
                                              __m512d qhi, double rd,
                                              __mmask16 amb) {
  const __m512d vrd = _mm512_set1_pd(rd);
  const __mmask8 lo = static_cast<__mmask8>(amb);
  const __mmask8 hi = static_cast<__mmask8>(amb >> 8);
  const __m512d xlo = _mm512_maskz_loadu_pd(lo, cold);
  const __m512d xhi = _mm512_maskz_loadu_pd(hi, cold + 8);
  const __mmask8 klo = _mm512_mask_cmp_pd_mask(
      lo, _mm512_abs_pd(_mm512_sub_pd(xlo, qlo)), vrd, _CMP_LE_OQ);
  const __mmask8 khi = _mm512_mask_cmp_pd_mask(
      hi, _mm512_abs_pd(_mm512_sub_pd(xhi, qhi)), vrd, _CMP_LE_OQ);
  return static_cast<__mmask16>(klo | (static_cast<unsigned>(khi) << 8));
}

// The f32 side of one chunk's decision over `lanes`: `wide` holds the
// lanes inside the wide radius, `certified` those of them also inside
// the narrow radius with an unclamped cell.  The exact mask is
// certified | (f64 test on wide & ~certified).
struct F32Test {
  __mmask16 wide, certified;
};

PMI_AVX512_TARGET inline F32Test TestF32(__m512 x, __m512 vq, __m512 vrw,
                                         __m512 vrn, __mmask16 lanes) {
  const __m512 d = _mm512_abs_ps(_mm512_sub_ps(x, vq));
  const __mmask16 wide = _mm512_mask_cmp_ps_mask(lanes, d, vrw, _CMP_LE_OQ);
  const __mmask16 certified =
      _mm512_mask_cmp_ps_mask(wide, d, vrn, _CMP_LE_OQ) &
      _mm512_cmp_ps_mask(_mm512_abs_ps(x), _mm512_set1_ps(kFltMax),
                         _CMP_LT_OQ);
  return {wide, certified};
}

// The exact decision of `lanes` of the chunk at row i, whose f32 cells
// are x.  The broadcast query value and radii arrive in registers: the
// keep stores may alias the slot, so reading them from `s` in the row
// loop would reload them every chunk.
PMI_AVX512_TARGET inline __mmask16 KeepLanes(const ExactSlot& s, size_t i,
                                             __m512 x, __m512 vq, __m512 vrw,
                                             __m512 vrn, __mmask16 lanes) {
  const F32Test f = TestF32(x, vq, vrw, vrn, lanes);
  const __mmask16 amb = f.wide & ~f.certified;
  if (amb == 0) return f.certified;
  const __m512d qd = _mm512_set1_pd(s.qd);
  return f.certified | ExactLanes(s.cold + i, qd, qd, s.rd, amb);
}

// The f64 query values of the lanes of `half` in the 8 rows at idx.
PMI_AVX512_TARGET inline __m512d GatherQd(const double* qd_pool,
                                          const uint32_t* idx,
                                          __mmask8 half) {
  const __m256i vidx = _mm256_maskz_loadu_epi32(half, idx);
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), half, vidx, qd_pool,
                                  8);
}

// Per-row-pivot form: vq holds the chunk's gathered f32 query values;
// the ambiguous lanes gather their f64 ones.
PMI_AVX512_TARGET inline __mmask16 KeepLanesGather(const ExactSlotGather& s,
                                                   size_t i, __m512 x,
                                                   __m512 vq, __m512 vrw,
                                                   __m512 vrn,
                                                   __mmask16 lanes) {
  const F32Test f = TestF32(x, vq, vrw, vrn, lanes);
  const __mmask16 amb = f.wide & ~f.certified;
  if (amb == 0) return f.certified;
  const __m512d qlo =
      GatherQd(s.qd_pool, s.idx + i, static_cast<__mmask8>(amb));
  const __m512d qhi =
      GatherQd(s.qd_pool, s.idx + i + 8, static_cast<__mmask8>(amb >> 8));
  return f.certified | ExactLanes(s.cold + i, qlo, qhi, s.rd, amb);
}

PMI_AVX512_TARGET inline __m512 GatherQf(const float* qf_pool, __m512i vidx,
                                         __mmask16 lanes) {
  return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), lanes, vidx, qf_pool,
                                  4);
}

PMI_AVX512_TARGET inline void StoreKeep(uint8_t* keep, __mmask16 lanes,
                                        __mmask16 k) {
  _mm_mask_storeu_epi8(keep, lanes, _mm_maskz_set1_epi8(k, 1));
}

// The lanes of the chunk at keep whose bytes are set.
PMI_AVX512_TARGET inline __mmask16 AliveLanes(const uint8_t* keep,
                                              __mmask16 lanes) {
  const __m128i cur = _mm_maskz_loadu_epi8(lanes, keep);
  return _mm_test_epi8_mask(cur, cur);
}

PMI_AVX512_TARGET size_t MaskSweepAvx512(const ExactSlot& s, size_t count,
                                         uint8_t* keep) {
  const __m512 vq = _mm512_set1_ps(s.qf);
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  size_t n = 0;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, s.colf + i);
    const __mmask16 k = KeepLanes(s, i, x, vq, vrw, vrn, lanes);
    StoreKeep(keep + i, lanes, k);
    n += PopCount(k);
  }
  return n;
}

PMI_AVX512_TARGET size_t MaskSweepGatherAvx512(const ExactSlotGather& s,
                                               size_t count, uint8_t* keep) {
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  size_t n = 0;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __m512i vidx = _mm512_maskz_loadu_epi32(lanes, s.idx + i);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, s.colf + i);
    const __m512 vq = GatherQf(s.qf_pool, vidx, lanes);
    const __mmask16 k = KeepLanesGather(s, i, x, vq, vrw, vrn, lanes);
    StoreKeep(keep + i, lanes, k);
    n += PopCount(k);
  }
  return n;
}

PMI_AVX512_TARGET size_t MaskAndAvx512(const ExactSlot& s, size_t count,
                                       uint8_t* keep) {
  const __m512 vq = _mm512_set1_ps(s.qf);
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  size_t n = 0;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __mmask16 alive = AliveLanes(keep + i, lanes);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, s.colf + i);
    const __mmask16 k = KeepLanes(s, i, x, vq, vrw, vrn, alive);
    StoreKeep(keep + i, lanes, k);
    n += PopCount(k);
  }
  return n;
}

PMI_AVX512_TARGET size_t MaskAndGatherAvx512(const ExactSlotGather& s,
                                             size_t count, uint8_t* keep) {
  const __m512 vrw = _mm512_set1_ps(s.rw);
  const __m512 vrn = _mm512_set1_ps(s.rn);
  size_t n = 0;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __mmask16 alive = AliveLanes(keep + i, lanes);
    const __m512i vidx = _mm512_maskz_loadu_epi32(lanes, s.idx + i);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, s.colf + i);
    const __m512 vq = GatherQf(s.qf_pool, vidx, alive);
    const __mmask16 k = KeepLanesGather(s, i, x, vq, vrw, vrn, alive);
    StoreKeep(keep + i, lanes, k);
    n += PopCount(k);
  }
  return n;
}

PMI_AVX512_TARGET size_t CompactAvx512(const uint8_t* keep, size_t count,
                                       uint32_t* surv) {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  size_t n = 0, i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(keep + i));
    const __mmask16 m = _mm_test_epi8_mask(b, b);
    const __m512i ids =
        _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(i)));
    _mm512_mask_compressstoreu_epi32(surv + n, m, ids);
    n += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  for (; i < count; ++i) {
    surv[n] = static_cast<uint32_t>(i);
    n += keep[i];
  }
  return n;
}

PMI_AVX512_TARGET size_t RefineF64Avx512(const double* col, double q,
                                         double r, uint32_t* surv, size_t n) {
  const __m512d vq = _mm512_set1_pd(q);
  const __m512d vr = _mm512_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m512d v = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, sv,
                                               col, 8);
    const __mmask8 k = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(v, vq)), vr, _CMP_LE_OQ);
    _mm256_mask_compressstoreu_epi32(surv + m, k, sv);
    m += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(k)));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q) <= r;
  }
  return m;
}

PMI_AVX512_TARGET size_t RefineF64GatherAvx512(const double* col,
                                               const uint32_t* idx,
                                               const double* q_of_pivot,
                                               double r, uint32_t* surv,
                                               size_t n) {
  const __m512d vr = _mm512_set1_pd(r);
  size_t m = 0, j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(surv + j));
    const __m256i vidx = _mm256_mmask_i32gather_epi32(
        _mm256_setzero_si256(), 0xff, sv, idx, 4);
    const __m512d vq = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff,
                                                vidx, q_of_pivot, 8);
    const __m512d v = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, sv,
                                               col, 8);
    const __mmask8 k = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(v, vq)), vr, _CMP_LE_OQ);
    _mm256_mask_compressstoreu_epi32(surv + m, k, sv);
    m += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(k)));
  }
  for (; j < n; ++j) {
    const uint32_t i = surv[j];
    surv[m] = i;
    m += std::fabs(col[i] - q_of_pivot[idx[i]]) <= r;
  }
  return m;
}

// Multi-query sweeps: one 16-lane slab load per row chunk shared by a
// register-resident group of 8 queries (3 zmm broadcasts per query,
// well under the 32-register file); per-query masks/counts equal
// MaskSweepAvx512's.  The group size G is a compile-time constant so
// the broadcast registers (query value, wide radius, narrow radius)
// stay in registers across the row loop; a dynamic query count would
// spill them to the stack and the reloads would cost more than the
// shared column load saves.  Groups walk the same L1-resident slab, so
// re-streaming it tile/G times is nearly free.
template <size_t G>
PMI_AVX512_TARGET void MaskSweepMultiAvx512Group(const ExactSlot* slots,
                                                 size_t count, uint8_t* keep,
                                                 size_t keep_stride,
                                                 size_t* counts) {
  __m512 vq[G], vrw[G], vrn[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vq[j] = _mm512_set1_ps(slots[j].qf);
    vrw[j] = _mm512_set1_ps(slots[j].rw);
    vrn[j] = _mm512_set1_ps(slots[j].rn);
    cnt[j] = 0;
  }
  const float* colf = slots[0].colf;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, colf + i);
    for (size_t j = 0; j < G; ++j) {
      const __mmask16 k =
          KeepLanes(slots[j], i, x, vq[j], vrw[j], vrn[j], lanes);
      StoreKeep(keep + j * keep_stride + i, lanes, k);
      cnt[j] += PopCount(k);
    }
  }
  for (size_t j = 0; j < G; ++j) counts[j] = cnt[j];
}

void MaskSweepMultiAvx512(const ExactSlot* slots, size_t nq, size_t count,
                          uint8_t* keep, size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 8 <= nq; t += 8) {
    MaskSweepMultiAvx512Group<8>(slots + t, count, keep + t * keep_stride,
                                 keep_stride, counts + t);
  }
  if (nq - t >= 4) {
    MaskSweepMultiAvx512Group<4>(slots + t, count, keep + t * keep_stride,
                                 keep_stride, counts + t);
    t += 4;
  }
  for (; t < nq; ++t) {
    counts[t] = MaskSweepAvx512(slots[t], count, keep + t * keep_stride);
  }
}

template <size_t G>
PMI_AVX512_TARGET void MaskSweepGatherMultiAvx512Group(
    const ExactSlotGather* slots, size_t count, uint8_t* keep,
    size_t keep_stride, size_t* counts) {
  __m512 vrw[G], vrn[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vrw[j] = _mm512_set1_ps(slots[j].rw);
    vrn[j] = _mm512_set1_ps(slots[j].rn);
    cnt[j] = 0;
  }
  const float* colf = slots[0].colf;
  const uint32_t* idx = slots[0].idx;
  for (size_t i = 0; i < count; i += 16) {
    const __mmask16 lanes = ChunkLanes(count - i);
    const __m512 x = _mm512_maskz_loadu_ps(lanes, colf + i);
    const __m512i vidx = _mm512_maskz_loadu_epi32(lanes, idx + i);
    for (size_t j = 0; j < G; ++j) {
      const __m512 vq = GatherQf(slots[j].qf_pool, vidx, lanes);
      const __mmask16 k =
          KeepLanesGather(slots[j], i, x, vq, vrw[j], vrn[j], lanes);
      StoreKeep(keep + j * keep_stride + i, lanes, k);
      cnt[j] += PopCount(k);
    }
  }
  for (size_t j = 0; j < G; ++j) counts[j] = cnt[j];
}

void MaskSweepGatherMultiAvx512(const ExactSlotGather* slots, size_t nq,
                                size_t count, uint8_t* keep,
                                size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 8 <= nq; t += 8) {
    MaskSweepGatherMultiAvx512Group<8>(slots + t, count,
                                       keep + t * keep_stride, keep_stride,
                                       counts + t);
  }
  if (nq - t >= 4) {
    MaskSweepGatherMultiAvx512Group<4>(slots + t, count,
                                       keep + t * keep_stride, keep_stride,
                                       counts + t);
    t += 4;
  }
  for (; t < nq; ++t) {
    counts[t] =
        MaskSweepGatherAvx512(slots[t], count, keep + t * keep_stride);
  }
}

#undef PMI_AVX512_TARGET

bool CpuSupportsAvx512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}

#endif  // PMI_SIMD_X86

#if PMI_SIMD_NEON

// ---------------------------------------------------------------------------
// NEON: 4 float lanes for the contiguous sweeps (FABD = abs-difference
// in one rounding, identical to fabsf(a - b)); the gather, compaction,
// and refine forms stay scalar -- AArch64 has no gather, and the
// survivor lists the refines touch are short.
// ---------------------------------------------------------------------------

// The NEON loops only raise a flag when a row falls between the narrow
// and wide radii; this second pass then settles every such row of the
// block against the double column, re-deriving certification
// scalar-wise (the same IEEE float expressions as the vector lanes).
// Integer-valued data puts rows exactly on |x - q| = r, so the pass
// runs often there.
size_t ResolveAmbiguous(const ExactSlot& s, size_t count, uint8_t* keep) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    if (keep[i]) {
      const float x = s.colf[i];
      const float d = std::fabs(x - s.qf);
      if (!(d <= s.rn && std::fabs(x) < kFltMax)) {
        keep[i] = std::fabs(s.cold[i] - s.qd) <= s.rd;
      }
      n += keep[i];
    }
  }
  return n;
}

size_t MaskSweepNeon(const ExactSlot& s, size_t count, uint8_t* keep) {
  const float32x4_t vq = vdupq_n_f32(s.qf);
  const float32x4_t vrw = vdupq_n_f32(s.rw);
  const float32x4_t vrn = vdupq_n_f32(s.rn);
  const float32x4_t vmax = vdupq_n_f32(kFltMax);
  size_t n = 0;
  uint32_t amb = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float32x4_t x = vld1q_f32(s.colf + i);
    const float32x4_t d = vabdq_f32(x, vq);
    const uint32x4_t mw = vcleq_f32(d, vrw);
    const uint32x4_t mc =
        vandq_u32(vcleq_f32(d, vrn), vcltq_f32(vabsq_f32(x), vmax));
    const uint32x4_t a = vbicq_u32(mw, mc);
    uint32_t w[4], av[4];
    vst1q_u32(w, mw);
    vst1q_u32(av, a);
    for (int t = 0; t < 4; ++t) {
      const uint8_t kb = w[t] & 1u;
      keep[i + t] = kb;
      n += kb;
      amb |= av[t];
    }
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = d <= s.rw;
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

size_t MaskAndNeon(const ExactSlot& s, size_t count, uint8_t* keep) {
  const float32x4_t vq = vdupq_n_f32(s.qf);
  const float32x4_t vrw = vdupq_n_f32(s.rw);
  const float32x4_t vrn = vdupq_n_f32(s.rn);
  const float32x4_t vmax = vdupq_n_f32(kFltMax);
  size_t n = 0;
  uint32_t amb = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float32x4_t x = vld1q_f32(s.colf + i);
    const float32x4_t d = vabdq_f32(x, vq);
    const uint32x4_t mw = vcleq_f32(d, vrw);
    const uint32x4_t mc =
        vandq_u32(vcleq_f32(d, vrn), vcltq_f32(vabsq_f32(x), vmax));
    uint32_t w[4], c[4];
    vst1q_u32(w, mw);
    vst1q_u32(c, mc);
    for (int t = 0; t < 4; ++t) {
      const uint8_t kb = keep[i + t] & (w[t] & 1u);
      keep[i + t] = kb;
      n += kb;
      amb |= kb & ((c[t] & 1u) ^ 1u);
    }
  }
  for (; i < count; ++i) {
    const float x = s.colf[i];
    const float d = std::fabs(x - s.qf);
    const uint8_t kw = keep[i] & static_cast<uint8_t>(d <= s.rw);
    const uint8_t kc = (d <= s.rn) & (std::fabs(x) < kFltMax);
    keep[i] = kw;
    n += kw;
    amb |= kw & (kc ^ 1);
  }
  if (amb != 0) n = ResolveAmbiguous(s, count, keep);
  return n;
}

// Multi-query sweep: the 4-lane x load is shared across a
// register-resident group of 4 queries (12 broadcast q-registers of the
// 32 available); the per-lane expressions match MaskSweepNeon exactly.
template <size_t G>
void MaskSweepMultiNeonGroup(const ExactSlot* slots, size_t count,
                             uint8_t* keep, size_t keep_stride,
                             size_t* counts) {
  float32x4_t vq[G], vrw[G], vrn[G];
  uint32_t amb[G];
  size_t cnt[G];
  for (size_t j = 0; j < G; ++j) {
    vq[j] = vdupq_n_f32(slots[j].qf);
    vrw[j] = vdupq_n_f32(slots[j].rw);
    vrn[j] = vdupq_n_f32(slots[j].rn);
    amb[j] = 0;
    cnt[j] = 0;
  }
  const float32x4_t vmax = vdupq_n_f32(kFltMax);
  const float* colf = slots[0].colf;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float32x4_t x = vld1q_f32(colf + i);
    const uint32x4_t xok = vcltq_f32(vabsq_f32(x), vmax);
    for (size_t j = 0; j < G; ++j) {
      const float32x4_t d = vabdq_f32(x, vq[j]);
      const uint32x4_t mw = vcleq_f32(d, vrw[j]);
      const uint32x4_t mc = vandq_u32(vcleq_f32(d, vrn[j]), xok);
      const uint32x4_t a = vbicq_u32(mw, mc);
      uint32_t w[4], av[4];
      vst1q_u32(w, mw);
      vst1q_u32(av, a);
      for (int t = 0; t < 4; ++t) {
        const uint8_t kb = w[t] & 1u;
        keep[j * keep_stride + i + t] = kb;
        cnt[j] += kb;
        amb[j] |= av[t];
      }
    }
  }
  for (; i < count; ++i) {
    const float x = colf[i];
    for (size_t j = 0; j < G; ++j) {
      const float d = std::fabs(x - slots[j].qf);
      const uint8_t kw = d <= slots[j].rw;
      const uint8_t kc = (d <= slots[j].rn) & (std::fabs(x) < kFltMax);
      keep[j * keep_stride + i] = kw;
      cnt[j] += kw;
      amb[j] |= kw & (kc ^ 1);
    }
  }
  for (size_t j = 0; j < G; ++j) {
    counts[j] = amb[j] != 0
                    ? ResolveAmbiguous(slots[j], count, keep + j * keep_stride)
                    : cnt[j];
  }
}

void MaskSweepMultiNeon(const ExactSlot* slots, size_t nq, size_t count,
                        uint8_t* keep, size_t keep_stride, size_t* counts) {
  size_t t = 0;
  for (; t + 4 <= nq; t += 4) {
    MaskSweepMultiNeonGroup<4>(slots + t, count, keep + t * keep_stride,
                               keep_stride, counts + t);
  }
  for (; t < nq; ++t) {
    counts[t] = MaskSweepNeon(slots[t], count, keep + t * keep_stride);
  }
}

#endif  // PMI_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch resolution.
// ---------------------------------------------------------------------------

SimdLevel DetectBestLevel() {
#if PMI_SIMD_X86
  if (CpuSupportsAvx512()) return SimdLevel::kAvx512;
  return SimdLevel::kScalar;
#elif PMI_SIMD_NEON
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

SimdOps MakeOps(SimdLevel level) {
  SimdOps ops;
  ops.level = SimdLevel::kScalar;
  ops.dense_divisor = 0;
  ops.mask_sweep = MaskSweepScalar;
  ops.mask_sweep_gather = MaskSweepGatherScalar;
  ops.mask_sweep_multi = MaskSweepMultiScalar;
  ops.mask_sweep_gather_multi = MaskSweepGatherMultiScalar;
  ops.mask_and = MaskAndScalar;
  ops.mask_and_gather = MaskAndGatherScalar;
  ops.compact = CompactScalar;
  ops.refine_f64 = RefineF64Scalar;
  ops.refine_f64_gather = RefineF64GatherScalar;
  switch (level) {
    case SimdLevel::kScalar:
      break;
#if PMI_SIMD_X86
    case SimdLevel::kAvx512:
      ops.level = SimdLevel::kAvx512;
      ops.dense_divisor = 8;
      ops.dense_divisor_gather = 8;
      ops.mask_sweep = MaskSweepAvx512;
      ops.mask_sweep_gather = MaskSweepGatherAvx512;
      ops.mask_sweep_multi = MaskSweepMultiAvx512;
      ops.mask_sweep_gather_multi = MaskSweepGatherMultiAvx512;
      ops.mask_and = MaskAndAvx512;
      ops.mask_and_gather = MaskAndGatherAvx512;
      ops.compact = CompactAvx512;
      ops.refine_f64 = RefineF64Avx512;
      ops.refine_f64_gather = RefineF64GatherAvx512;
      break;
#endif
#if PMI_SIMD_NEON
    case SimdLevel::kNeon:
      ops.level = SimdLevel::kNeon;
      // Contiguous kernels only: the gather form stays on the sparse
      // survivor walk (dense_divisor_gather = 0) -- no NEON gathers.
      ops.dense_divisor = 8;
      ops.mask_sweep = MaskSweepNeon;
      ops.mask_sweep_multi = MaskSweepMultiNeon;
      ops.mask_and = MaskAndNeon;
      break;
#endif
    default:
      break;  // level compiled out: scalar fallback
  }
  return ops;
}

SimdOps ResolveOps() {
  SimdLevel level = DetectBestLevel();
  const char* env = std::getenv("PMI_SIMD");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    SimdLevel requested;
    if (std::strcmp(env, "scalar") == 0) {
      requested = SimdLevel::kScalar;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = SimdLevel::kAvx512;
    } else if (std::strcmp(env, "neon") == 0) {
      requested = SimdLevel::kNeon;
    } else {
      std::fprintf(stderr,
                   "pmi: PMI_SIMD=\"%s\" is not scalar|avx512|neon|auto; "
                   "using %s\n",
                   env, SimdLevelName(level));
      requested = level;
    }
    if (SimdLevelSupported(requested)) {
      level = requested;
    } else {
      std::fprintf(stderr,
                   "pmi: PMI_SIMD=%s not supported on this CPU/build; "
                   "using %s\n",
                   env, SimdLevelName(level));
    }
  }
  return MakeOps(level);
}

// Written only by ReinitSimdDispatch (startup / single-threaded test
// setup); read-only on the scan hot path.
SimdOps g_ops = MakeOps(SimdLevel::kScalar);

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdLevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
#if PMI_SIMD_X86
    case SimdLevel::kAvx512:
      return CpuSupportsAvx512();
#endif
#if PMI_SIMD_NEON
    case SimdLevel::kNeon:
      return true;
#endif
    default:
      return false;
  }
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kNeon, SimdLevel::kAvx512}) {
    if (SimdLevelSupported(level)) out.push_back(level);
  }
  return out;
}

const SimdOps& SimdDispatch() {
  // Magic-static once-init: the first caller resolves the level; the
  // race-free publication is the C++ guarantee on static local init.
  static const bool resolved = [] {
    ReinitSimdDispatch();
    return true;
  }();
  (void)resolved;
  return g_ops;
}

SimdLevel SimdLevelInUse() { return SimdDispatch().level; }

void ReinitSimdDispatch() { g_ops = ResolveOps(); }

}  // namespace pmi
