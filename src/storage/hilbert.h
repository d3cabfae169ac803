// n-dimensional Hilbert space-filling curve.
//
// The SPB-tree (Section 5.4) maps pre-computed pivot distances to integer
// SFC values "while (to some extent) maintaining spatial proximity"; this
// is the curve it uses.  Implementation follows Skilling's public-domain
// transpose algorithm (AxestoTranspose / TransposetoAxes, 2004); the
// decode direction runs branch-free over blocks of keys, because the
// SPB-tree decodes every leaf entry it visits.

#ifndef PMI_STORAGE_HILBERT_H_
#define PMI_STORAGE_HILBERT_H_

#include <cstddef>
#include <cstdint>

namespace pmi {

/// Hilbert curve over `dims` dimensions with `bits` bits per dimension.
/// Requires Fits(dims, bits).
class HilbertCurve {
 public:
  /// True when a curve over (dims, bits) can be built: 1 <= bits <= 16
  /// and dims * bits <= 63, so keys fit a uint64 (and leave headroom for
  /// B+-tree sentinel use).
  static bool Fits(uint64_t dims, uint64_t bits) {
    return dims >= 1 && bits >= 1 && bits <= 16 && dims * bits <= 63;
  }

  HilbertCurve(uint32_t dims, uint32_t bits);

  uint32_t dims() const { return dims_; }
  uint32_t bits() const { return bits_; }

  /// Largest coordinate value, (1 << bits) - 1.
  uint32_t max_coord() const { return (1u << bits_) - 1; }

  /// Curve position of the cell `coords` (each < 2^bits).
  uint64_t Encode(const uint32_t* coords) const;

  /// Inverse of Encode.
  void Decode(uint64_t key, uint32_t* coords) const;

  /// Decode of `count` keys at once: coords[k * dims() + i] receives axis
  /// i of keys[k].  Runs the same transform as Decode on blocks of keys,
  /// branch-free and lane-parallel, so it costs far less per key.
  void DecodeMany(const uint64_t* keys, size_t count, uint32_t* coords) const;

  /// Convenience: picks the largest usable bits for `dims` (<= 16).
  static uint32_t AutoBits(uint32_t dims) {
    uint32_t b = 63 / dims;
    return b > 16 ? 16 : (b == 0 ? 1 : b);
  }

 private:
  uint32_t dims_;
  uint32_t bits_;
};

}  // namespace pmi

#endif  // PMI_STORAGE_HILBERT_H_
