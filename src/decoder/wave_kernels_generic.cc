/**
 * @file
 * Generic rung of the SIMD ladder, L = 4: no target attribute, so the
 * kernels compile for the baseline ISA — one 128-bit vector per
 * variable (SSE2 on x86-64, NEON on aarch64). Every build registers
 * it, last: it is what pre-AVX2 x86 hosts and non-x86 builds decode
 * with. Wider generic vectors lower to poor code without an ISA
 * target, so this rung has no other width.
 */

// The product-sum math must round exactly like the scalar decoder's:
// no multiply-add contraction in this TU (see bp_math.inl).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "decoder/wave_kernels.h"

#include <cstdint>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#define CYCLONE_WAVE_KERNEL
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable*
waveKernelTableGeneric()
{
    // Full-message min-sum: without a native sign-bit pack the
    // compressed pass's encode loop is an OR reduction per edge,
    // which costs more than the message stores it avoids.
    return laneKernelTable<4, false>();
}

} // namespace cyclone
