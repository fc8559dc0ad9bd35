#include "decoder/decoder_backend.h"

#include <algorithm>
#include <cstdlib>

namespace cyclone {

namespace {

bool
alwaysSupported()
{
    return true;
}

#if defined(CYCLONE_WAVE_KERNEL_AVX512)

bool
avx512Supported()
{
    return __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw");
}

const DecoderBackend kAvx512Backend{
    "avx512", &avx512Supported, &waveKernelTableAvx512};

#endif

#if defined(CYCLONE_WAVE_KERNEL_AVX2)

bool
avx2Supported()
{
    return __builtin_cpu_supports("avx2");
}

const DecoderBackend kAvx2Backend{
    "avx2", &avx2Supported, &waveKernelTableAvx2};

#endif

const DecoderBackend kGenericBackend{
    "generic", &alwaysSupported, &waveKernelTableGeneric};

} // namespace

const std::vector<const DecoderBackend*>&
decoderBackendRegistry()
{
    static const std::vector<const DecoderBackend*> registry = {
#if defined(CYCLONE_WAVE_KERNEL_AVX512)
        &kAvx512Backend,
#endif
#if defined(CYCLONE_WAVE_KERNEL_AVX2)
        &kAvx2Backend,
#endif
        &kGenericBackend,
    };
    return registry;
}

const DecoderBackend*
findDecoderBackend(std::string_view name)
{
    for (const DecoderBackend* b : decoderBackendRegistry()) {
        if (name == b->name)
            return b;
    }
    return nullptr;
}

DecoderBackendChoice
selectDecoderBackend(size_t)
{
    if (const char* env = std::getenv(kWaveBackendEnv)) {
        const DecoderBackend* forced = findDecoderBackend(env);
        if (forced != nullptr && forced->supported())
            return {forced};
        // Anything else falls through to auto dispatch: the override
        // is a throughput knob and must never strand a decode.
    }
    // The search stops short of the always-supported generic rung, so
    // it lands there when no wider rung runs on this host.
    const auto& registry = decoderBackendRegistry();
    return {*std::find_if(registry.begin(), registry.end() - 1,
                          [](const DecoderBackend* b) {
                              return b->supported();
                          })};
}

} // namespace cyclone
