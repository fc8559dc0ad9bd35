/**
 * @file
 * Bit-packed batch of sampled shots, shot-major.
 *
 * A ShotBatch stores the detector outcomes of `numShots` Monte Carlo
 * shots as packed rows: row s is shot s's syndrome, laid out as a
 * BitVec lays out its words (LSB first, zero past numDetectors). The
 * geometric-skip sampler XORs each fired mechanism's detectors into
 * its shot's row, and the decoder reads each row whole: a zero test
 * for the sub-threshold fast path, then a word copy into the memo.
 */

#ifndef CYCLONE_DEM_SHOT_BATCH_H
#define CYCLONE_DEM_SHOT_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"

namespace cyclone {

/** Packed detector outcomes + observable masks of a batch of shots. */
struct ShotBatch
{
    size_t numDetectors = 0;
    size_t numShots = 0;

    /**
     * Shot-major packed outcomes: row s is the syndromeWords() words
     * starting at word `s * syndromeWords()`. Bits at detector indices
     * >= numDetectors are always zero.
     */
    std::vector<uint64_t> words;

    /** Observable flip mask of each shot. */
    std::vector<uint64_t> observables;

    /** Words of one shot's row. */
    size_t
    syndromeWords() const
    {
        return (numDetectors + 63) / 64;
    }

    /**
     * Resize to `detectors` x `shots` and zero all contents, keeping
     * existing storage (chunk loops reuse one batch per worker).
     */
    void reset(size_t detectors, size_t shots);

    /** First word of shot s's row. */
    const uint64_t*
    row(size_t shot) const
    {
        return words.data() + shot * syndromeWords();
    }

    /** Flip the outcome of one detector for one shot. */
    void
    flipDetector(size_t shot, size_t det)
    {
        words[shot * syndromeWords() + (det >> 6)] ^=
            uint64_t(1) << (det & 63);
    }

    /** One shot's syndrome as a BitVec (a copy of its row). */
    BitVec syndromeOf(size_t shot) const;
};

} // namespace cyclone

#endif // CYCLONE_DEM_SHOT_BATCH_H
