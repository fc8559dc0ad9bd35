/**
 * @file
 * Belief propagation over a detector error model.
 *
 * Checks are detectors, variables are error mechanisms. Supports
 * product-sum (default) and normalized min-sum updates. Product-sum's
 * tanh and log come from bp_math.inl, not libm, so both variants give
 * the same floats on every host. Decoding stops as soon as the hard
 * decision reproduces the syndrome.
 *
 * Message and posterior storage is flat structure-of-arrays float:
 * single precision halves the working set of the edge loops (the BP
 * inner loops are memory-bound on qLDPC detector graphs) and is far
 * more resolution than min-sum/product-sum message passing needs —
 * hard decisions only depend on signs and coarse magnitudes. The hard
 * decision itself is bit-packed, so syndrome verification is a
 * word-parity sweep over the check CSR instead of a byte load per
 * edge.
 *
 * The Tanner graph lives in a shared immutable BpGraph so the scalar
 * decoder and the lane-parallel wave kernel (bp_wave_decoder.h) walk
 * the same CSR arrays.
 */

#ifndef CYCLONE_DECODER_BP_DECODER_H
#define CYCLONE_DECODER_BP_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "decoder/bp_graph.h"
#include "dem/dem.h"

namespace cyclone {

/** BP configuration. */
struct BpOptions
{
    enum class Variant { MinSum, ProductSum };

    /**
     * Product-sum is the default. Neither rule dominates: in paired
     * comparisons on the same shots (README.md, "Product-sum and
     * min-sum") product-sum left fewer failures at one of six
     * bb72/hgp225 points, min-sum at three, and two were unresolved.
     */
    Variant variant = Variant::ProductSum;
    size_t maxIterations = 32;
};

/** Belief-propagation decoder core. */
class BpDecoder
{
  public:
    BpDecoder(const DetectorErrorModel& dem, BpOptions options = {});

    /** Share a prebuilt graph (one per DEM, many decoder views). */
    BpDecoder(std::shared_ptr<const BpGraph> graph,
              BpOptions options = {});

    /**
     * Run BP on a syndrome.
     *
     * @return true if the hard decision reproduces the syndrome
     *         (converged); the decision and posteriors are readable
     *         either way.
     */
    bool decode(const BitVec& syndrome);

    /** Bit-packed hard decision per mechanism after the last decode. */
    const BitVec& hardDecision() const { return hard_; }

    /** Posterior log-likelihood ratios after the last decode. */
    const std::vector<float>& posteriorLlr() const { return posterior_; }

    /** Iterations consumed by the last decode. */
    size_t lastIterations() const { return lastIterations_; }

    size_t numChecks() const { return graph_->numChecks; }
    size_t numVars() const { return graph_->numVars; }

    const std::shared_ptr<const BpGraph>& graph() const { return graph_; }

  private:
    void posteriorUpdate();
    void checkToVarUpdate(const BitVec& syndrome);
    bool syndromeMatches(const BitVec& syndrome) const;

    std::shared_ptr<const BpGraph> graph_;
    BpOptions options_;

    // Only check-to-var messages are stored, in check-CSR order so the
    // check pass streams sequentially; the posterior pass gathers them
    // through graph_->checkSlotOfVarEdge. The var-to-check message of
    // an edge is derived inside the check pass as
    // clamp(posterior[v] - msgCheckToVar_[slot]) — identical floats to
    // materializing it, at half the message-array traffic.
    std::vector<float> msgCheckToVar_;     // indexed in check-CSR order

    std::vector<float> posterior_;
    BitVec hard_;
    std::vector<float> tanhScratch_;
    std::vector<float> msgScratch_;
    bool hardChanged_ = false;
    size_t lastIterations_ = 0;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_BP_DECODER_H
