/**
 * @file
 * Lane-parallel belief propagation: decode many shots per SIMD wave.
 *
 * The wave decoder runs the exact BpDecoder message schedule on up to
 * L syndromes simultaneously. State is lane-major structure-of-arrays
 * — msg[edge][lane], posterior[var][lane], priors broadcast across
 * lanes — so the posterior gather and the min-sum / product-sum check
 * pass become fixed-width inner loops over L floats that the compiler
 * autovectorizes. Hard decisions are per-variable lane bitmasks, so
 * syndrome verification collapses to one XOR per edge and one compare
 * per check, simultaneously for every lane.
 *
 * The hot passes themselves live behind the DecoderBackend seam
 * (decoder_backend.h): each SIMD-ladder rung is a per-ISA translation
 * unit exporting a kernel table, and this class runs the iteration
 * schedule, convergence bookkeeping and verification against whichever
 * table dispatch selected. L is therefore a runtime property here, not
 * a template parameter.
 *
 * Bit-exactness invariant: lanes never interact arithmetically. Each
 * lane performs the same float operations, in the same order, as
 * BpDecoder::decode on that lane's syndrome — on every rung — or, on
 * a product-sum row that saturates in every active lane, operations
 * that provably give the same floats (the tanh and the per-edge
 * division and log are skipped; see checkToVarUpdateWave). A lane
 * that converges is frozen — the check pass stops overwriting its
 * messages (a masked blend), and because its messages no longer move,
 * the unconditional posterior/hard recompute of later iterations
 * reproduces its values bit-for-bit. Frozen lanes and idle lanes past
 * the group count do not count when a row skip is decided, so they no
 * longer block one: what they compute there is discarded or never
 * read. Per-lane convergence iterations
 * also match the scalar decoder: verification is evaluated every
 * iteration here, and when the scalar decoder skips verification (no
 * decision bit moved) the skipped result provably equals the reused
 * one. The equivalence is enforced by tests/test_wave_decoder.cc
 * across lane widths and backends.
 */

#ifndef CYCLONE_DECODER_BP_WAVE_DECODER_H
#define CYCLONE_DECODER_BP_WAVE_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "decoder/bp_decoder.h"
#include "decoder/bp_graph.h"
#include "decoder/decoder_backend.h"

namespace cyclone {

/** BP over L syndrome lanes at once. */
class BpWaveDecoder
{
  public:
    /**
     * Lane width runtime dispatch resolves a BpOptions::waveLanes
     * request to on this host (selectDecoderBackend(requested).lanes):
     * the widest supported rung at or below the request, honoring the
     * CYCLONE_WAVE_BACKEND override. Returns 1 when only the scalar
     * rung is available (pre-AVX2 x86 host, or a forced scalar
     * override) — callers treat 1 as "wave kernel disabled" and must
     * not construct a BpWaveDecoder.
     */
    static size_t resolveLaneWidth(size_t requested);

    /**
     * Whether dispatch finds any wave rung this CPU can run (the
     * kernel functions are compiled with function-scoped target
     * attributes on x86-64 builds). When false, BpOsdDecoder silently
     * uses the scalar batch core instead; constructing or driving a
     * BpWaveDecoder directly is then undefined. Always true on
     * non-x86 builds (the generic rung runs everywhere).
     */
    static bool runtimeSupported();

    /** Auto-dispatched backend (selectDecoderBackend). */
    BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                  BpOptions options);

    /**
     * Explicit backend, for forced-dispatch tests and per-rung
     * benches. `backend` must be supported on this host and must
     * serve options.waveLanes (backendLaneWidth > 1).
     */
    BpWaveDecoder(std::shared_ptr<const BpGraph> graph,
                  BpOptions options, const DecoderBackend& backend);

    /** Lanes decoded per wave. */
    size_t laneWidth() const { return laneWidth_; }

    /** Name of the kernel backend driving this decoder. */
    const char* backendName() const { return backend_->name; }

    /**
     * Decode syndromes[0..count) in parallel lanes (count must be in
     * [1, laneWidth()]). Each syndrome must have numChecks bits. Lane
     * results are readable through the accessors below until the next
     * decodeWave call.
     */
    void decodeWave(const BitVec* const* syndromes, size_t count);

    /** Whether lane's hard decision reproduced its syndrome. */
    bool
    laneConverged(size_t lane) const
    {
        return (convergedMask_ >> lane) & 1;
    }

    /** Iterations consumed by lane (== BpDecoder::lastIterations). */
    uint32_t laneIterations(size_t lane) const { return iterations_[lane]; }

    /** Copy lane's posterior LLRs into out (resized to numVars). */
    void lanePosterior(size_t lane, std::vector<float>& out) const;

    /** Copy lane's hard decision into out (resized to numVars bits). */
    void laneHardDecision(size_t lane, BitVec& out) const;

    size_t numChecks() const { return graph_->numChecks; }
    size_t numVars() const { return graph_->numVars; }

  private:
    void initState();
    void runWave(size_t count);
    /** Lane mask of lanes whose hard decision matches their syndrome. */
    uint64_t verifyWave() const;
    WaveKernelCtx kernelCtx();

    std::shared_ptr<const BpGraph> graph_;
    BpOptions options_;
    const DecoderBackend* backend_ = nullptr;
    const WaveKernelTable* kernels_ = nullptr;
    size_t laneWidth_ = 0;
    float clamp_ = 50.0f;
    float minSumScale_ = 0.9f;

    // Lane-major state: element i*L + l is lane l's value of entity i.
    // Min-sum waves on rungs with minSumCompressed store messages
    // compressed (two scaled minima per check + two packed lane-bit
    // words per edge, see wave_kernels.h) instead of msg_ — 8x less
    // memory traffic per iteration at L = 16, which is what the wide
    // rungs are bound by on large DEMs. Decode-on-read is
    // bit-identical to the full array, so the exactness invariant is
    // unchanged. Product-sum, and min-sum on uncompressed rungs, keep
    // the full message array.
    std::vector<float> msg_;       ///< numEdges x L, check-CSR order
                                   ///< (uncompressed rungs).
    std::vector<float> checkMin1_; ///< numChecks x L (compressed).
    std::vector<float> checkMin2_; ///< numChecks x L (compressed).
    std::vector<uint32_t> edgeSignBits_; ///< numEdges (compressed).
    std::vector<uint32_t> edgeMinBits_;  ///< numEdges (compressed).
    std::vector<float> posterior_; ///< numVars x L.
    std::vector<uint64_t> hardMask_; ///< per var: bit l = lane l's bit.
    std::vector<uint64_t> synMask_;  ///< per check: lane syndrome bits.
    std::vector<float> synSign_;     ///< numChecks x L: +-1 per lane.
    std::vector<float> msgScratch_;  ///< maxCheckDegree x L.
    std::vector<float> tanhScratch_; ///< maxCheckDegree x L.

    /** Per-lane freeze blend: ~0u while active, 0 once converged. */
    std::vector<uint32_t> laneActive_;
    uint64_t activeMask_ = 0;
    uint64_t convergedMask_ = 0;
    uint32_t iterations_[64] = {};
};

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_WAVE_DECODER_H
