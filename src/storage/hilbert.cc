#include "src/storage/hilbert.h"

#include <algorithm>
#include <cassert>

namespace pmi {
namespace {

// Keys per DecodeMany block: the lane count of the decode kernel.
constexpr uint32_t kDecodeLanes = 16;

// Skilling's in-place transform from axes to the "transpose" form of the
// Hilbert index (bit-plane-major).  Public domain (J. Skilling,
// "Programming the Hilbert curve", AIP 2004).
void AxesToTranspose(uint32_t* x, uint32_t bits, uint32_t n) {
  uint32_t m = 1u << (bits - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    uint32_t p = q - 1;
    for (uint32_t i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        uint32_t t = (x[0] ^ x[i]) & p;  // exchange
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (uint32_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (uint32_t i = 0; i < n; ++i) x[i] ^= t;
}

// Decodes up to kLanes keys: de-interleave into the transpose, then
// Skilling's TransposeToAxes.  Every loop keeps the lanes innermost, so
// each step is one lane-parallel operation the compiler can vectorize.
// The "undo excess work" branch on the tested bit becomes a mask: where
// bit s of x[i] is set, x[0] ^= p; elsewhere x[0] and x[i] exchange their
// low s bits.  Lanes past `count` decode key 0 and are never written out.
template <uint32_t kLanes>
void DecodeLanes(const uint64_t* keys, uint32_t count, uint32_t dims,
                 uint32_t bits, uint32_t* coords) {
  // Fits() guarantees dims >= 1; saying so lets the compiler see that
  // every row of x read below has been written.
  if (dims == 0) return;
  // The keys as two 32-bit halves, so every step works on u32 lanes.
  uint32_t half[2][kLanes];
  for (uint32_t l = 0; l < kLanes; ++l) {
    const uint64_t key = l < count ? keys[l] : 0;
    half[0][l] = static_cast<uint32_t>(key);
    half[1][l] = static_cast<uint32_t>(key >> 32);
  }
  // De-interleave: key bit b*dims + (dims-1-i) is bit b of x[i].
  uint32_t x[64][kLanes];
  for (uint32_t i = 0; i < dims; ++i) {
    uint32_t acc[kLanes] = {};
    for (uint32_t b = 0; b < bits; ++b) {
      const uint32_t pos = b * dims + (dims - 1 - i);
      const uint32_t* h = half[pos >> 5];
      for (uint32_t l = 0; l < kLanes; ++l) {
        acc[l] |= ((h[l] >> (pos & 31)) & 1u) << b;
      }
    }
    for (uint32_t l = 0; l < kLanes; ++l) x[i][l] = acc[l];
  }
  // Gray decode by H ^ (H/2).  x[0] lives in its own array from here on:
  // every step of the loop below updates it, and apart from the rows of
  // x it can stay in registers.
  uint32_t x0[kLanes];
  for (uint32_t l = 0; l < kLanes; ++l) {
    x0[l] = x[0][l] ^ (x[dims - 1][l] >> 1);
  }
  for (uint32_t i = dims - 1; i > 0; --i) {
    for (uint32_t l = 0; l < kLanes; ++l) x[i][l] ^= x[i - 1][l];
  }
  // Undo excess work, for q = 2^s.  For i == 0 the exchange is a no-op,
  // which leaves only the inversion.
  for (uint32_t s = 1; s < bits; ++s) {
    const uint32_t p = (1u << s) - 1;
    for (uint32_t i = dims - 1; i > 0; --i) {
      uint32_t* xi = x[i];
      for (uint32_t l = 0; l < kLanes; ++l) {
        const uint32_t set = 0u - ((xi[l] >> s) & 1u);
        const uint32_t swap = (x0[l] ^ xi[l]) & p & ~set;
        x0[l] ^= swap ^ (p & set);
        xi[l] ^= swap;
      }
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
      x0[l] ^= p & (0u - ((x0[l] >> s) & 1u));
    }
  }
  for (uint32_t l = 0; l < kLanes; ++l) x[0][l] = x0[l];
  for (uint32_t l = 0; l < count; ++l) {
    for (uint32_t i = 0; i < dims; ++i) coords[l * dims + i] = x[i][l];
  }
}

}  // namespace

HilbertCurve::HilbertCurve(uint32_t dims, uint32_t bits)
    : dims_(dims), bits_(bits) {
  assert(Fits(dims, bits));
}

uint64_t HilbertCurve::Encode(const uint32_t* coords) const {
  uint32_t x[64];
  for (uint32_t i = 0; i < dims_; ++i) {
    assert(coords[i] <= max_coord());
    x[i] = coords[i];
  }
  AxesToTranspose(x, bits_, dims_);
  // Interleave the transpose bit-planes, MSB plane first: key bit
  // (bits-1-b)*dims + (dims-1-i) ... equivalently walk planes outward.
  uint64_t key = 0;
  for (uint32_t b = bits_; b-- > 0;) {
    for (uint32_t i = 0; i < dims_; ++i) {
      key = (key << 1) | ((x[i] >> b) & 1u);
    }
  }
  return key;
}

void HilbertCurve::Decode(uint64_t key, uint32_t* coords) const {
  DecodeLanes<1>(&key, 1, dims_, bits_, coords);
}

void HilbertCurve::DecodeMany(const uint64_t* keys, size_t count,
                              uint32_t* coords) const {
  for (size_t k = 0; k < count; k += kDecodeLanes) {
    const uint32_t block =
        static_cast<uint32_t>(std::min<size_t>(kDecodeLanes, count - k));
    DecodeLanes<kDecodeLanes>(keys + k, block, dims_, bits_,
                              coords + k * dims_);
  }
}

}  // namespace pmi
