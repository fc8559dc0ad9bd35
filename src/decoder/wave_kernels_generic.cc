/**
 * @file
 * Generic rung of the SIMD ladder: no target attribute, so the
 * kernels compile for the baseline ISA (NEON on aarch64, SSE2 on
 * plain x86-64 builds with CYCLONE_WAVE_SIMD off). On builds that
 * carry the attributed x86 rungs this TU compiles to the empty
 * fallback: pre-AVX2 x86 hosts must select the scalar batch core, not
 * a generic-vector kernel the compiler lowers poorly (see
 * decoder_backend.cc).
 */

// The product-sum math must round exactly like the scalar decoder's:
// no multiply-add contraction in this TU (see bp_math.inl).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "decoder/wave_kernels.h"

#ifndef CYCLONE_WAVE_KERNEL_AVX2

#include <cstdint>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#define CYCLONE_WAVE_KERNEL
#include "decoder/wave_kernels.inl"

namespace cyclone {

const WaveKernelTable*
waveKernelTablesGeneric(size_t lanes)
{
    // Full-message min-sum everywhere: without a native sign-bit
    // pack the compressed pass's encode loop is an OR reduction per
    // edge, which costs more than the message stores it avoids.
    if (lanes == 16)
        return laneKernelTable<16, false>();
    if (lanes == 8)
        return laneKernelTable<8, false>();
    if (lanes == 4)
        return laneKernelTable<4, false>();
    return nullptr;
}

} // namespace cyclone

#else // CYCLONE_WAVE_KERNEL_AVX2

namespace cyclone {

const WaveKernelTable*
waveKernelTablesGeneric(size_t)
{
    return nullptr;
}

} // namespace cyclone

#endif
