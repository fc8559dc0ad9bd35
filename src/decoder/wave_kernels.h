/**
 * @file
 * ISA-specific instantiations of the lane-parallel BP kernels.
 *
 * The wave decoder's two hot passes — the posterior scatter and the
 * check-to-variable update — are template bodies shared by every
 * rung of the SIMD ladder (wave_kernels.inl). Each rung is one
 * translation unit that includes the .inl under a function-scoped
 * target attribute and exports one table of function pointers at its
 * one lane width:
 *
 *   - wave_kernels_generic.cc : no target attribute (baseline ISA),
 *     L = 4 — one 128-bit vector per variable; in every build.
 *   - wave_kernels_avx2.cc    : target("avx2"), L = 8 (one ymm).
 *   - wave_kernels_avx512.cc  : target("avx512f,avx512bw"), L = 16 —
 *     one zmm per variable, with the frozen-lane select lowered to
 *     __mmask16 blends.
 *
 * Splitting the rungs into separate TUs (instead of one TU with many
 * target attributes) keeps each kernel's helpers inlined under exactly
 * one ISA and lets the registry in decoder_backend.cc compile the AVX
 * rungs in or out (CYCLONE_WAVE_KERNEL_AVX2 / _AVX512, defined on
 * x86-64 builds). The kernels operate on a borrowed view of the
 * decoder's lane-major state (WaveKernelCtx); all float semantics and
 * the bit-exactness argument live in bp_wave_decoder.h.
 */

#ifndef CYCLONE_DECODER_WAVE_KERNELS_H
#define CYCLONE_DECODER_WAVE_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "decoder/bp_graph.h"
#include "decoder/bp_math.h"

namespace cyclone {

/**
 * Borrowed view of BpWaveDecoder's lane-major state for one pass.
 *
 * Min-sum waves store messages compressed: a check's outgoing
 * messages take only two magnitudes (scale x min1 / scale x min2 of
 * its incoming magnitudes), so the per-edge state is two packed
 * lane-bit words — bit l of edgeSignBits is lane l's message IEEE
 * sign bit, bit l of edgeMinBits whether that lane's own magnitude
 * was the minimum (selecting scale x min2 on decode). The numEdges x
 * L float message array (the multi-MB stream that made the wide rungs
 * bandwidth-bound) shrinks 8x at L = 16, and decoding a message is a
 * broadcast + bit-test select + sign XOR yielding the exact floats
 * the full array would have held. (Lane *bitmasks* rather than a code
 * byte per lane because GCC scalarizes byte-to-int vector
 * conversions; broadcast-and-test lowers to two ops per word.)
 * Product-sum messages don't compress this way and keep `msg`.
 */
struct WaveKernelCtx
{
    const BpGraph* graph = nullptr;
    float* msg = nullptr;        ///< numEdges x L, check-CSR order
                                 ///< (product-sum variant only).
    float* posterior = nullptr;  ///< numVars x L.
    uint64_t* hardMask = nullptr;  ///< per var: bit l = lane l's bit.
    const float* synSign = nullptr;  ///< numChecks x L: +-1 per lane.
    float* msgScratch = nullptr;   ///< maxCheckDegree x L.
    float* tanhScratch = nullptr;  ///< maxCheckDegree x L.
    const uint32_t* laneActive = nullptr;  ///< L entries: ~0u or 0.
    // Compressed min-sum state (min-sum variant only).
    float* checkMin1 = nullptr;  ///< numChecks x L: scale x min1.
    float* checkMin2 = nullptr;  ///< numChecks x L: scale x min2.
    uint32_t* edgeSignBits = nullptr;  ///< numEdges: lane sign bits.
    uint32_t* edgeMinBits = nullptr;   ///< numEdges: lane was-min1 bits.
};

/** One ISA rung at its lane width: the wave decoder's inner passes. */
struct WaveKernelTable
{
    size_t lanes = 0;
    /**
     * Whether this rung's min-sum passes use the compressed message
     * state (checkMin1/2 + the edge bit words) or the plain msg
     * array. A per-rung tuning choice, not a capability: compression
     * pays where the full message stream is the bottleneck (L = 16,
     * 64 B per edge) and its decode-on-read maps to single mask
     * instructions; on the narrower rungs the smaller stream plus the
     * cheaper plain store wins. The decoder allocates and resets
     * whichever state the selected rung asks for.
     */
    bool minSumCompressed = false;
    /** Full-message posterior pass (product-sum variant, and the
     *  min-sum variant of uncompressed rungs). */
    void (*posteriorUpdate)(const WaveKernelCtx&) = nullptr;
    void (*checkProdSum)(const WaveKernelCtx&) = nullptr;
    void (*checkProdSumMasked)(const WaveKernelCtx&) = nullptr;
    /** Min-sum passes (compressed or full per minSumCompressed). */
    void (*posteriorUpdateMinSum)(const WaveKernelCtx&) = nullptr;
    void (*checkMinSum)(const WaveKernelCtx&) = nullptr;
    void (*checkMinSumMasked)(const WaveKernelCtx&) = nullptr;
};

/**
 * Kernel table of each rung. The AVX tables are defined only in builds
 * that compile those rungs (CYCLONE_WAVE_KERNEL_AVX2 / _AVX512); the
 * registry references them under the same guards.
 */
const WaveKernelTable* waveKernelTableGeneric();
const WaveKernelTable* waveKernelTableAvx2();
const WaveKernelTable* waveKernelTableAvx512();

} // namespace cyclone

#endif // CYCLONE_DECODER_WAVE_KERNELS_H
