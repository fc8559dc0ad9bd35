/**
 * @file
 * AVX2 rung of the SIMD ladder: L = 8, one ymm per variable. Compiled
 * only when the build enables the x86 kernels (CYCLONE_WAVE_KERNEL_AVX2).
 */

// The product-sum math must round exactly like the scalar decoder's:
// no multiply-add contraction in this TU (see bp_math.inl).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "decoder/wave_kernels.h"

#ifdef CYCLONE_WAVE_KERNEL_AVX2

#include <cstdint>

#include <immintrin.h>

// Sign-bit packing via one vmovmskps on the bitcast predicate,
// replacing the portable OR-reduction loop (packSignBits in the .inl).
#define CYCLONE_WAVE_PACK_AVX 1

// The lane helpers pass/return wide generic vectors; they are
// force-inlined into the target("avx2") kernels, so the baseline-ABI
// warning about vector returns is moot.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

// Scoped ISA for the hot kernels only: the rest of the library
// compiles for the baseline target, so no symbol shared with other
// TUs can smuggle AVX2 code into a binary that runs on a pre-AVX2
// CPU. The backend registry's supported() check gates every call.
#define CYCLONE_WAVE_KERNEL __attribute__((target("avx2")))
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable*
waveKernelTableAvx2()
{
    // Full-message min-sum: at ymm width the message array is half
    // the L = 16 size, and measured e2e throughput favors the plain
    // store over compression's per-edge decode.
    return laneKernelTable<8, false>();
}

} // namespace cyclone

#endif // CYCLONE_WAVE_KERNEL_AVX2
