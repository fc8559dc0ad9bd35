#include "dem/dem_sampler.h"

namespace cyclone {

void
sampleDemInto(const DetectorErrorModel& dem, size_t shots, Rng& rng,
              DemShots& out)
{
    // Reuse existing BitVec storage: resize() keeps capacity and
    // clear() only zeroes words.
    out.syndromes.resize(shots);
    for (BitVec& v : out.syndromes) {
        if (v.size() != dem.numDetectors)
            v.resize(dem.numDetectors);
        v.clear();
    }
    out.observables.assign(shots, 0);

    for (const DemMechanism& m : dem.mechanisms) {
        uint64_t shot = rng.geometricSkip(m.probability);
        while (shot < shots) {
            for (uint32_t d : m.detectors)
                out.syndromes[shot].flip(d);
            out.observables[shot] ^= m.observables;
            const uint64_t skip = rng.geometricSkip(m.probability);
            if (skip == ~0ull)
                break;
            shot += 1 + skip;
        }
    }
}

void
sampleDemBatch(const DetectorErrorModel& dem, size_t shots, Rng& rng,
               ShotBatch& out)
{
    out.reset(dem.numDetectors, shots);
    for (const DemMechanism& m : dem.mechanisms) {
        uint64_t shot = rng.geometricSkip(m.probability);
        while (shot < shots) {
            for (uint32_t d : m.detectors)
                out.flipDetector(shot, d);
            out.observables[shot] ^= m.observables;
            const uint64_t skip = rng.geometricSkip(m.probability);
            if (skip == ~0ull)
                break;
            shot += 1 + skip;
        }
    }
}

DemShots
sampleDem(const DetectorErrorModel& dem, size_t shots, Rng& rng)
{
    DemShots out;
    sampleDemInto(dem, shots, rng, out);
    return out;
}

} // namespace cyclone
