#include "decoder/bp_wave_decoder.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace cyclone {

BpWaveDecoder::BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                             BpOptions options,
                             const DecoderBackend& backend)
    : graph_(std::move(graph)), options_(options), backend_(&backend),
      kernels_(backend.kernels()), laneWidth_(kernels_->lanes)
{
    CYCLONE_ASSERT(backend.supported(),
                   "backend '" << backend.name
                   << "' is not supported on this host");
    const size_t L = laneWidth_;
    if (options_.variant == BpOptions::Variant::MinSum &&
        kernels_->minSumCompressed) {
        // All-zero compressed state decodes every message to +0.0f —
        // the same initial messages the full array starts from.
        checkMin1_.assign(graph_->numChecks * L, 0.0f);
        checkMin2_.assign(graph_->numChecks * L, 0.0f);
        edgeSignBits_.assign(graph_->numEdges, 0);
        edgeMinBits_.assign(graph_->numEdges, 0);
    } else {
        msg_.assign(graph_->numEdges * L, 0.0f);
    }
    posterior_.assign(graph_->numVars * L, 0.0f);
    hardMask_.assign(graph_->numVars, 0);
    synMask_.assign(graph_->numChecks, 0);
    synSign_.assign(graph_->numChecks * L, 1.0f);
    msgScratch_.resize(graph_->maxCheckDegree * L);
    tanhScratch_.resize(graph_->maxCheckDegree * L);
    laneActive_.assign(L, 0);
}

WaveKernelCtx
BpWaveDecoder::kernelCtx()
{
    WaveKernelCtx ctx;
    ctx.graph = graph_.get();
    ctx.msg = msg_.data();
    ctx.checkMin1 = checkMin1_.data();
    ctx.checkMin2 = checkMin2_.data();
    ctx.edgeSignBits = edgeSignBits_.data();
    ctx.edgeMinBits = edgeMinBits_.data();
    ctx.posterior = posterior_.data();
    ctx.hardMask = hardMask_.data();
    ctx.synSign = synSign_.data();
    ctx.msgScratch = msgScratch_.data();
    ctx.tanhScratch = tanhScratch_.data();
    ctx.laneActive = laneActive_.data();
    return ctx;
}

uint64_t
BpWaveDecoder::verifyWave() const
{
    // H e == syndrome for every lane at once: one XOR of the variable
    // lane masks per edge, one lane-mask compare per check.
    const BpGraph& g = *graph_;
    const uint64_t* hard = hardMask_.data();
    uint64_t mismatch = 0;
    for (size_t c = 0; c < g.numChecks; ++c) {
        uint64_t parity = 0;
        for (size_t s = g.checkOffset[c]; s < g.checkOffset[c + 1];
             ++s)
            parity ^= hard[g.checkEdgeVar[s]];
        mismatch |= parity ^ synMask_[c];
    }
    return ~mismatch;
}

void
BpWaveDecoder::runWave(size_t count)
{
    const bool min_sum = options_.variant == BpOptions::Variant::MinSum;
    if (min_sum && kernels_->minSumCompressed) {
        std::fill(checkMin1_.begin(), checkMin1_.end(), 0.0f);
        std::fill(checkMin2_.begin(), checkMin2_.end(), 0.0f);
        std::fill(edgeSignBits_.begin(), edgeSignBits_.end(), 0u);
        std::fill(edgeMinBits_.begin(), edgeMinBits_.end(), 0u);
    } else {
        std::fill(msg_.begin(), msg_.end(), 0.0f);
    }
    std::fill(hardMask_.begin(), hardMask_.end(), 0);
    activeMask_ = count == 64 ? ~uint64_t{0}
                              : ((uint64_t{1} << count) - 1);
    const uint64_t initialActive = activeMask_;
    convergedMask_ = 0;
    for (size_t l = 0; l < laneWidth_; ++l) {
        laneActive_[l] = l < count ? ~uint32_t{0} : 0;
        iterations_[l] = 0;
    }

    const WaveKernelCtx ctx = kernelCtx();
    const auto posterior_pass = min_sum ? kernels_->posteriorUpdateMinSum
                                        : kernels_->posteriorUpdate;
    for (size_t iter = 0; iter < options_.maxIterations; ++iter) {
        posterior_pass(ctx);
        // The scalar decoder only re-verifies when a decision bit
        // moved; verifying every iteration is equivalent (an unmoved
        // decision re-verifies to the same answer) and here costs one
        // XOR per edge for all lanes together.
        const uint64_t verified = verifyWave() & activeMask_;
        if (verified != 0) {
            uint64_t pending = verified;
            while (pending != 0) {
                const size_t l = static_cast<size_t>(
                    std::countr_zero(pending));
                pending &= pending - 1;
                iterations_[l] = static_cast<uint32_t>(iter);
                laneActive_[l] = 0;
            }
            convergedMask_ |= verified;
            activeMask_ &= ~verified;
        }
        if (activeMask_ == 0)
            return;
        const bool none_frozen = activeMask_ == initialActive;
        if (min_sum) {
            if (none_frozen)
                kernels_->checkMinSum(ctx);
            else
                kernels_->checkMinSumMasked(ctx);
        } else {
            if (none_frozen)
                kernels_->checkProdSum(ctx);
            else
                kernels_->checkProdSumMasked(ctx);
        }
    }

    // Lanes still active ran out of iterations: final posterior pass
    // and last-chance verification, exactly like the scalar epilogue.
    posterior_pass(ctx);
    const uint64_t verified = verifyWave() & activeMask_;
    uint64_t pending = activeMask_;
    while (pending != 0) {
        const size_t l =
            static_cast<size_t>(std::countr_zero(pending));
        pending &= pending - 1;
        iterations_[l] = static_cast<uint32_t>(options_.maxIterations);
    }
    convergedMask_ |= verified;
    activeMask_ = 0;
}

void
BpWaveDecoder::decodeWave(const BitVec* const* syndromes, size_t count)
{
    CYCLONE_ASSERT(count >= 1 && count <= laneWidth_,
                   "wave lane count " << count << " out of [1, "
                   << laneWidth_ << "]");
    const size_t L = laneWidth_;
    for (size_t l = 0; l < count; ++l) {
        CYCLONE_ASSERT(syndromes[l]->size() == graph_->numChecks,
                       "lane " << l << " syndrome length mismatch: "
                       << syndromes[l]->size() << " vs "
                       << graph_->numChecks);
    }
    // Per-check lane masks and sign rows; idle lanes (>= count) carry
    // the zero syndrome and are frozen from the start.
    for (size_t c = 0; c < graph_->numChecks; ++c) {
        uint64_t mask = 0;
        float* signs = synSign_.data() + c * L;
        for (size_t l = 0; l < L; ++l) {
            const bool bit = l < count && syndromes[l]->get(c);
            mask |= uint64_t{bit} << l;
            signs[l] = bit ? -1.0f : 1.0f;
        }
        synMask_[c] = mask;
    }
    runWave(count);
}

void
BpWaveDecoder::lanePosterior(size_t lane, std::vector<float>& out) const
{
    const size_t L = laneWidth_;
    const size_t n = graph_->numVars;
    out.resize(n);
    for (size_t v = 0; v < n; ++v)
        out[v] = posterior_[v * L + lane];
}

void
BpWaveDecoder::laneHardDecision(size_t lane, BitVec& out) const
{
    const size_t n = graph_->numVars;
    if (out.size() != n)
        out.resize(n);
    uint64_t* words = out.words().data();
    uint64_t word = 0;
    for (size_t v = 0; v < n; ++v) {
        word |= ((hardMask_[v] >> lane) & 1) << (v & 63);
        if ((v & 63) == 63) {
            words[v >> 6] = word;
            word = 0;
        }
    }
    if (n & 63)
        words[n >> 6] = word;
}

} // namespace cyclone
