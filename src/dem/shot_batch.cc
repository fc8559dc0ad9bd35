#include "dem/shot_batch.h"

#include "common/logging.h"

namespace cyclone {

void
ShotBatch::reset(size_t detectors, size_t shots)
{
    numDetectors = detectors;
    numShots = shots;
    words.assign(shots * syndromeWords(), 0);
    observables.assign(shots, 0);
}

BitVec
ShotBatch::syndromeOf(size_t shot) const
{
    CYCLONE_ASSERT(shot < numShots, "shot " << shot << " out of range");
    BitVec syndrome(numDetectors);
    syndrome.assignWords(row(shot), syndromeWords());
    return syndrome;
}

} // namespace cyclone
