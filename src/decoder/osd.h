/**
 * @file
 * Ordered statistics decoding: OSD-0 plus an order-lambda single-flip
 * sweep (OSD-E / combination-sweep in the BP+OSD literature).
 *
 * Given BP posteriors, mechanisms are sorted most-likely-flipped first
 * and Gaussian elimination over that order selects the most-reliable
 * information set. The OSD-0 solution is the unique correction
 * supported on that set. Because BP posteriors can tie on degenerate
 * qLDPC errors, OSD-0 alone sometimes lands in the wrong logical
 * coset; the order-lambda sweep additionally considers solutions that
 * include one of the first lambda non-pivot columns and keeps the most
 * probable candidate. This is the standard post-processor that makes
 * BP usable on qLDPC codes (Panteleev & Kalachev; Roffe et al.), as
 * used by the decoders the paper cites for BB and HGP codes.
 *
 * Two entry points share one decoder:
 *
 *  - decode(): the original per-shot scalar path, kept as the
 *    reference implementation (and the fallback of the per-shot
 *    pipeline).
 *  - solve(): the fast path of the wave pipeline, which solves each
 *    non-converged lane right after its wave. It runs a leaner
 *    elimination than the scalar path: a stable radix sort on the
 *    float bit pattern instead of a lazy heap, column-only reduction
 *    with a hit list once the reject quota is full, first-set-bit
 *    scan hints, software prefetch of the candidates a few positions
 *    ahead, and a bit-sliced dual (left-nullspace) basis of up to 512
 *    lanes that filters the long dependent tail at one 8-word row XOR
 *    per candidate detector from the moment the quota is full and at
 *    most 512 rows remain uncovered. None of that changes any result:
 *    the pivot/reject choice is a pure function of the reliability
 *    permutation (lowest LLR first, ties by index) and the scoring
 *    loops run in the scalar order, so solve() is bit-identical to
 *    decode() — the contract tests/test_decoder_fuzz.cc enforces.
 */

#ifndef CYCLONE_DECODER_OSD_H
#define CYCLONE_DECODER_OSD_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "dem/dem.h"

namespace cyclone {

/** OSD post-processor over a detector error model. */
class OsdDecoder
{
  public:
    /**
     * @param dem model to decode against (kept by reference)
     * @param order number of non-pivot columns swept by the
     *        order-lambda stage (0 = plain OSD-0)
     */
    explicit OsdDecoder(const DetectorErrorModel& dem,
                        size_t order = 60);

    /**
     * Solve H e = syndrome with support restricted to the most
     * reliable basis (plus at most one swept column).
     *
     * @param syndrome detector outcomes
     * @param posterior_llr per-mechanism posterior LLRs from BP
     *        (lower = more likely in error; ties broken by index so
     *        the elimination order is deterministic)
     * @param[out] errors hard decision per mechanism
     * @return true if a solution was found (always, for syndromes in
     *         the column span of the DEM)
     */
    bool decode(const BitVec& syndrome,
                const std::vector<float>& posterior_llr,
                std::vector<uint8_t>& errors);

    /**
     * Solve one shot exactly as decode() would, through the lean
     * elimination (see the file comment).
     *
     * @param syndrome detector outcomes
     * @param posterior_llr per-mechanism posterior LLRs from BP
     * @param[out] flips flipped mechanism indices, ascending by pivot
     *        slot with the swept column last: the mechanisms decode()
     *        marks in its errors vector (empty when it fails)
     * @return true if a solution was found (syndrome in column span)
     */
    bool solve(const BitVec& syndrome,
               const std::vector<float>& posterior_llr,
               std::vector<uint32_t>& flips);

    /** Column rank discovered so far (fixed after the first decode). */
    size_t discoveredRank() const { return rank_; }

    /** solve() eliminations, over the decoder's lifetime, whose
     *  dual-basis filter switched on while more than 64 rows were
     *  uncovered, i.e. with lanes past the first word of each dual
     *  row. */
    size_t wideDualBases() const { return wideDualBases_; }

  private:
    size_t augWords() const;
    void sortReliability(const float* llr);
    void buildDualBasis();
    void runElimination(const float* llr);
    double scoreAug(const uint64_t* aug, const float* llr,
                    double extra) const;

    const DetectorErrorModel& dem_;
    size_t order_;
    size_t words_ = 0;
    size_t rank_ = 0;        ///< 0 until first full elimination.
    bool rankKnown_ = false;

    // Scratch reused across calls (one decoder per thread); all flat
    // so the elimination allocates nothing after the first decode.
    // Candidate columns are consumed lazily from a (llr, index)
    // min-heap: pops follow exactly the sorted reliability order, but
    // once the rank is known only the columns the elimination actually
    // inspects are ordered, not all mechanisms (a median of ~5,400 of
    // 15,840 on bb72 at p = 1e-3, ~36,000 of 57,876 on hgp225).
    std::vector<std::pair<float, uint32_t>> heap_;
    std::vector<uint64_t> colScratch_;
    std::vector<uint64_t> augScratch_;
    std::vector<uint64_t> pivotCols_;  ///< words_ per pivot slot.
    std::vector<uint64_t> pivotAugs_;  ///< augWords() per pivot slot.
    std::vector<uint32_t> pivotVar_;
    std::vector<uint32_t> pivotByRow_;
    std::vector<uint32_t> rejectVar_;
    std::vector<uint64_t> rejectAugs_; ///< augWords() per reject slot.
    std::vector<uint64_t> residual_;
    std::vector<uint64_t> baseAug_;
    std::vector<uint64_t> candidateAug_;
    std::vector<uint64_t> sweepAug_;

    // --- solve() scratch ---

    /** Candidate order: (transformed LLR key << 32 | index), sorted
     *  ascending by a stable 3-pass LSD radix sort — exactly the
     *  (llr, index) comparator order of the scalar heap, at a
     *  fraction of a comparison sort's cost. */
    std::vector<uint64_t> orderKeys_;
    std::vector<uint64_t> orderAlt_; ///< radix double buffer.
    std::vector<uint32_t> hitSlots_; ///< column-only-mode hit list.
    size_t wideDualBases_ = 0;

    /** Bit-sliced dual basis of the uncovered rows: kDualWords (8)
     *  words per detector row, where row d holds, in lane b (word
     *  b / 64, bit b % 64), the d-th coordinate of the b-th
     *  left-nullspace basis vector of the current pivot span. A
     *  candidate column c is independent of the pivots iff the XOR of
     *  the rows of c's detectors is nonzero, which turns the long
     *  dependent tail of the elimination into one row XOR per
     *  candidate detector. Built once the reject quota is full and at
     *  most 64 x kDualWords rows remain uncovered. */
    std::vector<uint64_t> dualSlice_;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_OSD_H
