/**
 * @file
 * The DecoderBackend seam: registry and runtime dispatch for the
 * decode stack's SIMD ladder.
 *
 * A backend is one rung of the ladder, and each rung decodes one lane
 * width L (syndromes per wave): "avx512" (L = 16, one zmm per
 * variable), "avx2" (L = 8, one ymm) and "generic" (L = 4, one
 * 128-bit vector at the baseline ISA: SSE2 on x86-64, NEON on
 * aarch64). Every build registers generic, last and always supported;
 * x86-64 builds put the two AVX rungs ahead of it. All rungs are
 * bit-identical by construction — lanes never interact and every lane
 * runs the scalar float sequence — so dispatch is purely a throughput
 * decision:
 *
 *   1. If the CYCLONE_WAVE_BACKEND environment variable names a
 *      compiled-in, CPUID-supported backend, it wins (the forced-
 *      dispatch hook the tests and benches use). Other values —
 *      unknown names, "auto", "", rungs this host cannot run — fall
 *      through to auto dispatch: an override can change speed, never
 *      results.
 *   2. Otherwise the first supported rung of the registry wins:
 *      avx512 -> avx2 -> generic on x86 builds, generic elsewhere.
 *
 * Later rungs (GPU, streaming slabs) drop in as new registry entries
 * behind the same two functions.
 */

#ifndef CYCLONE_DECODER_DECODER_BACKEND_H
#define CYCLONE_DECODER_DECODER_BACKEND_H

#include <cstddef>
#include <string_view>
#include <vector>

#include "decoder/wave_kernels.h"

namespace cyclone {

/** One rung of the SIMD ladder. */
struct DecoderBackend
{
    /** Stable identifier: "generic", "avx2" or "avx512". Also the
     *  value CYCLONE_WAVE_BACKEND matches against, and the name
     *  reported through BpOsdStats. */
    const char* name = "";

    /** Whether this host's CPU can execute the rung's kernels. */
    bool (*supported)() = nullptr;

    /** The rung's kernel table; its `lanes` is the rung's width. */
    const WaveKernelTable* (*kernels)() = nullptr;
};

/**
 * Every backend compiled into this build, widest rung first; the
 * generic rung is always present, always supported and always last.
 * Other entries may be unsupported on this host — pair with
 * supported().
 */
const std::vector<const DecoderBackend*>& decoderBackendRegistry();

/** Registry entry by name, or nullptr (compiled-in != supported). */
const DecoderBackend* findDecoderBackend(std::string_view name);

/** Environment variable that forces a backend by name. */
inline constexpr const char* kWaveBackendEnv = "CYCLONE_WAVE_BACKEND";

/** A dispatch decision. */
struct DecoderBackendChoice
{
    const DecoderBackend* backend = nullptr;
};

/**
 * Runtime dispatch for this host and this environment. Never fails:
 * the generic rung runs everywhere. Read once at decoder construction
 * — changing CYCLONE_WAVE_BACKEND afterwards does not migrate live
 * decoders. The argument is unread; it stays only so perfbench's
 * provenance call `selectDecoderBackend(0)` compiles until the next
 * benchmark change.
 */
DecoderBackendChoice selectDecoderBackend(size_t unread = 0);

} // namespace cyclone

#endif // CYCLONE_DECODER_DECODER_BACKEND_H
