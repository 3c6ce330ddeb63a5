#ifndef REVERE_COMMON_SIMD_H_
#define REVERE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace revere::simd {

/// Kernel layer over `uint32` code arrays for the columnar engine.
///
/// The engine's hot loops — constant filters, repeated-variable
/// equality checks, grouped-index gathers, and the code-domain row-hash
/// mix at the output boundary — are expressed against this small kernel
/// vocabulary. Each kernel is one plain loop that the compiler may
/// auto-vectorize.
///
/// Bounds contract: a call with `n` elements touches elements [0, n) of
/// every array argument and nothing past them (mask arrays: words
/// [0, MaskWords(n))), so buffers are allocated with exactly `n`
/// elements. `n == 0` touches nothing.
///
/// Masks are bit-per-element uint64 words: bit i of word i/64 is
/// element i. Mask kernels keep bits >= n zero, so compaction needs no
/// separate bound.

/// 64-bit words needed for an n-element bitmask.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

/// out[i] = v.
void FillU32(uint32_t v, size_t n, uint32_t* out);
void FillU64(uint64_t v, size_t n, uint64_t* out);
/// out[i] = base + i.
void IotaU32(uint32_t base, size_t n, uint32_t* out);
/// out[i] = src[i]. src/out must not overlap.
void CopyU32(const uint32_t* src, size_t n, uint32_t* out);
/// out[i] = vals[idx[i]]. `idx == out` aliasing is allowed.
void GatherU32(const uint32_t* vals, const uint32_t* idx, size_t n,
               uint32_t* out);
/// mask bit i = (a[i] == want).
void EqMaskSet(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask);
/// mask bit i &= (a[i] == want).
void EqMaskAnd(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask);
/// mask bit i = (a[i] == b[i]).
void Eq2MaskSet(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask);
/// mask bit i &= (a[i] == b[i]).
void Eq2MaskAnd(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask);
/// out[k++] = src[i] for each set mask bit i < n, ascending; returns k.
/// Writes exactly out[0, k).
size_t CompactU32(const uint32_t* src, const uint64_t* mask, size_t n,
                  uint32_t* out);
/// h[i] = HashStep(h[i], vh[codes[i]]) — the code-domain row-hash mix
/// (vh = per-dictionary value hashes).
void HashMix(const uint64_t* vh, const uint32_t* codes, size_t n,
             uint64_t* h);
/// h[i] = HashStep(h[i], hv) — constant / unbound head positions.
void HashMixConst(uint64_t hv, size_t n, uint64_t* h);

/// Name of the kernel implementation, reported as a machine fact.
inline const char* BackendName() { return "scalar"; }

}  // namespace revere::simd

#endif  // REVERE_COMMON_SIMD_H_
