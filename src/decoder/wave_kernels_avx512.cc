/**
 * @file
 * AVX-512 rung of the SIMD ladder: L = 16, one zmm per variable. The
 * generic-vector selects (`cond ? a : b` on 16-lane comparisons) lower
 * to __mmask16 compare + masked blends under this target, which is
 * what makes the frozen-lane message freeze and the two-smallest
 * tracking cheap at this width. Compiled only when the build enables
 * the x86 kernels (CYCLONE_WAVE_KERNEL_AVX512).
 */

// The product-sum math must round exactly like the scalar decoder's:
// no multiply-add contraction in this TU (see bp_math.inl).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "decoder/wave_kernels.h"

#ifdef CYCLONE_WAVE_KERNEL_AVX512

#include <cstdint>

#include <immintrin.h>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Sign-bit packing via vptestmd against a sign-bit splat: the mask
// lands directly in a k-register, replacing the portable OR-reduction
// loop (packSignBits in the .inl).
#define CYCLONE_WAVE_PACK_AVX512 1

// avx512f covers the 512-bit float/int arithmetic and mask blends;
// avx512bw the byte/word mask ops GCC picks for 16-lane integer
// selects. avx512f also brings 512-bit FMA, so only the pragma at the
// top keeps multiply-adds unfused and the lanes float-identical to the
// scalar decoder.
#define CYCLONE_WAVE_KERNEL __attribute__((target("avx512f,avx512bw")))
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable*
waveKernelTableAvx512()
{
    return laneKernelTable<16, true>();
}

} // namespace cyclone

#endif // CYCLONE_WAVE_KERNEL_AVX512
