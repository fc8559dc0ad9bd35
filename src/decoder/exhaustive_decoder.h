/**
 * @file
 * Brute-force maximum-likelihood-ish decoder for tiny models.
 *
 * Enumerates error subsets up to a weight cap and returns the highest
 * probability subset reproducing the syndrome. Exponential; intended
 * only as a test oracle against BP+OSD on small codes.
 */

#ifndef CYCLONE_DECODER_EXHAUSTIVE_DECODER_H
#define CYCLONE_DECODER_EXHAUSTIVE_DECODER_H

#include <cstddef>
#include <cstdint>

#include "common/bitvec.h"
#include "dem/dem.h"

namespace cyclone {

/** Exhaustive subset-enumeration decoder (test oracle). */
class ExhaustiveDecoder
{
  public:
    /**
     * @param dem model to decode against (kept by reference)
     * @param max_weight largest subset size to enumerate
     */
    ExhaustiveDecoder(const DetectorErrorModel& dem, size_t max_weight);

    /** Predicted observable flip mask of the most likely subset. */
    uint64_t decode(const BitVec& syndrome);

    /** True if the last decode found a subset matching the syndrome. */
    bool lastDecodeMatched() const { return lastMatched_; }

  private:
    const DetectorErrorModel& dem_;
    size_t maxWeight_;
    bool lastMatched_ = false;
};

} // namespace cyclone

#endif // CYCLONE_DECODER_EXHAUSTIVE_DECODER_H
