#include "src/common/simd.h"

#include <algorithm>

#include "src/common/hash.h"

namespace revere::simd {

namespace {

/// Word w of the n-element mask whose bit i is pred(i); bits >= n stay
/// zero.
template <typename Pred>
uint64_t MaskWord(size_t w, size_t n, Pred pred) {
  const size_t base = w * 64;
  const size_t limit = std::min<size_t>(64, n - base);
  uint64_t word = 0;
  for (size_t b = 0; b < limit; ++b) {
    word |= uint64_t{pred(base + b)} << b;
  }
  return word;
}

}  // namespace

void FillU32(uint32_t v, size_t n, uint32_t* out) { std::fill_n(out, n, v); }

void FillU64(uint64_t v, size_t n, uint64_t* out) { std::fill_n(out, n, v); }

void IotaU32(uint32_t base, size_t n, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = base + static_cast<uint32_t>(i);
}

void CopyU32(const uint32_t* src, size_t n, uint32_t* out) {
  std::copy_n(src, n, out);
}

void GatherU32(const uint32_t* vals, const uint32_t* idx, size_t n,
               uint32_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = vals[idx[i]];
}

void EqMaskSet(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    mask[w] = MaskWord(w, n, [&](size_t i) { return a[i] == want; });
  }
}

void EqMaskAnd(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    mask[w] &= MaskWord(w, n, [&](size_t i) { return a[i] == want; });
  }
}

void Eq2MaskSet(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    mask[w] = MaskWord(w, n, [&](size_t i) { return a[i] == b[i]; });
  }
}

void Eq2MaskAnd(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    mask[w] &= MaskWord(w, n, [&](size_t i) { return a[i] == b[i]; });
  }
}

size_t CompactU32(const uint32_t* src, const uint64_t* mask, size_t n,
                  uint32_t* out) {
  size_t k = 0;
  for (size_t w = 0; w < MaskWords(n); ++w) {
    for (uint64_t word = mask[w]; word != 0; word &= word - 1) {
      out[k++] = src[w * 64 + static_cast<size_t>(__builtin_ctzll(word))];
    }
  }
  return k;
}

void HashMix(const uint64_t* vh, const uint32_t* codes, size_t n,
             uint64_t* h) {
  for (size_t i = 0; i < n; ++i) h[i] = HashStep(h[i], vh[codes[i]]);
}

void HashMixConst(uint64_t hv, size_t n, uint64_t* h) {
  for (size_t i = 0; i < n; ++i) h[i] = HashStep(h[i], hv);
}

}  // namespace revere::simd
