/**
 * @file
 * Fast sampler of detector/observable outcomes from a DEM.
 *
 * Each mechanism fires independently with its probability; geometric
 * skip sampling makes the cost proportional to the number of fired
 * events rather than shots x mechanisms.
 */

#ifndef CYCLONE_DEM_DEM_SAMPLER_H
#define CYCLONE_DEM_DEM_SAMPLER_H

#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "dem/dem.h"
#include "dem/shot_batch.h"

namespace cyclone {

/** A batch of sampled shots. */
struct DemShots
{
    /** Detector outcomes, one BitVec per shot. */
    std::vector<BitVec> syndromes;
    /** Observable flip masks, one per shot. */
    std::vector<uint64_t> observables;
};

/** Sample `shots` independent shots from the model. */
DemShots sampleDem(const DetectorErrorModel& dem, size_t shots, Rng& rng);

/**
 * Sample into a reusable buffer.
 *
 * Resizes and zeroes `out` without releasing its storage, so a chunked
 * sampling loop (the decoder benches collecting syndromes) reuses one
 * allocation instead of churning a fresh vector of BitVecs per batch.
 * The campaign's sampler fills packed batches with sampleDemBatch.
 */
void sampleDemInto(const DetectorErrorModel& dem, size_t shots, Rng& rng,
                   DemShots& out);

/**
 * Sample straight into a packed ShotBatch, one row per shot.
 *
 * Consumes the RNG stream in exactly the same order as sampleDemInto
 * (mechanisms outer, geometric skips inner), so for a given seed each
 * row holds bit-for-bit the words of the scalar sampler's BitVec for
 * that shot — the batched decode pipeline stays bit-identical to the
 * scalar one. Reuses `out`'s storage.
 */
void sampleDemBatch(const DetectorErrorModel& dem, size_t shots, Rng& rng,
                    ShotBatch& out);

} // namespace cyclone

#endif // CYCLONE_DEM_DEM_SAMPLER_H
