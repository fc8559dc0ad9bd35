#include "campaign/adaptive_sampler.h"

#include <algorithm>
#include <utility>

#include "campaign/content_hash.h"
#include "common/logging.h"

namespace cyclone {

uint64_t
chunkSeed(uint64_t taskSeed, size_t index)
{
    HashStream h;
    h.absorb(taskSeed).absorb(uint64_t{index}).absorb(
        uint64_t{0xc4a2b9d1u});
    return h.digest();
}

ChunkPlan
planChunk(const StoppingRule& rule, uint64_t taskSeed, size_t index)
{
    const size_t chunkShots =
        rule.chunkShots > 0 ? rule.chunkShots : StoppingRule{}.chunkShots;
    ChunkPlan plan;
    plan.index = index;
    const size_t planned = index * chunkShots;
    if (planned < rule.maxShots)
        plan.shots = std::min(chunkShots, rule.maxShots - planned);
    plan.seed = chunkSeed(taskSeed, index);
    return plan;
}

namespace {

/** Sample chunk k of plans[0..count) into batches[k] from its own RNG
 *  stream. */
void
sampleChunks(const DetectorErrorModel& dem, const ChunkPlan* plans,
             size_t count, std::vector<ShotBatch>& batches)
{
    if (batches.size() < count)
        batches.resize(count);
    for (size_t k = 0; k < count; ++k) {
        Rng rng(plans[k].seed);
        sampleDemBatch(dem, plans[k].shots, rng, batches[k]);
    }
}

} // namespace

ChunkOutcome
runChunkGroup(const DetectorErrorModel& dem, const ChunkPlan* plans,
              size_t count, BpOsdDecoder& decoder,
              std::vector<ShotBatch>& batches)
{
    sampleChunks(dem, plans, count, batches);
    decoder.beginStaged();
    for (size_t k = 0; k < count; ++k)
        decoder.stageBatch(batches[k]);
    decoder.flushStaged();

    ChunkOutcome outcome;
    const std::vector<uint64_t>& predicted = decoder.stagedPredictions();
    for (size_t k = 0; k < count; ++k) {
        const size_t base = decoder.stagedBatchOffset(k);
        outcome.shots += plans[k].shots;
        for (size_t s = 0; s < plans[k].shots; ++s) {
            if (predicted[base + s] != batches[k].observables[s])
                ++outcome.failures;
        }
    }
    return outcome;
}

ChunkOutcome
runChunkGroupStreamed(const DetectorErrorModel& dem,
                      const ChunkPlan* plans, size_t count,
                      StreamDecoder& stream,
                      std::vector<ShotBatch>& batches)
{
    sampleChunks(dem, plans, count, batches);
    size_t total = 0;
    std::vector<size_t> base(count);
    for (size_t k = 0; k < count; ++k) {
        base[k] = total;
        total += plans[k].shots;
    }

    const size_t S = stream.streams();
    const size_t R = stream.roundsPerWindow();
    auto locate = [&](size_t flat) -> std::pair<size_t, size_t> {
        size_t k = count - 1;
        while (base[k] > flat)
            --k;
        return {k, flat - base[k]};
    };

    // Round-synchronous arrival: at absolute round tick t, stream s
    // is on round t % R of its window t / R (flat shot
    // (t / R) * S + s). Each stream's source syndrome is staged when
    // its window opens, then sliced round by round.
    std::vector<BitVec> sources(S);
    const size_t windowsPerStream = (total + S - 1) / S;
    for (size_t t = 0; t < windowsPerStream * R; ++t) {
        const size_t w = t / R;
        const size_t r = t % R;
        for (size_t s = 0; s < S; ++s) {
            const size_t flat = w * S + s;
            if (flat >= total)
                continue;
            if (r == 0) {
                const auto [k, shot] = locate(flat);
                sources[s] = batches[k].syndromeOf(shot);
            }
            stream.pushRound(s, sources[s]);
        }
        stream.poll();
    }
    stream.finish();

    ChunkOutcome outcome;
    outcome.shots = total;
    CYCLONE_ASSERT(stream.committed().size() == total,
                   "streamed group committed "
                       << stream.committed().size() << " of " << total
                       << " windows");
    for (const CommittedWindow& c : stream.committed()) {
        const size_t flat = c.windowIndex * S + c.stream;
        const auto [k, shot] = locate(flat);
        if (c.prediction != batches[k].observables[shot])
            ++outcome.failures;
    }
    stream.committed().clear();
    return outcome;
}

AdaptiveSampler::AdaptiveSampler(StoppingRule rule, uint64_t taskSeed)
    : rule_(rule), taskSeed_(taskSeed)
{
    if (rule_.chunksPerWave == 0)
        rule_.chunksPerWave = 1;
    if (rule_.maxShots == 0)
        done_ = true;
}

std::vector<ChunkPlan>
AdaptiveSampler::nextWave()
{
    std::vector<ChunkPlan> wave;
    if (done_)
        return wave;
    for (size_t i = 0; i < rule_.chunksPerWave; ++i) {
        const ChunkPlan plan = planChunk(rule_, taskSeed_, nextChunk_);
        if (plan.shots == 0)
            break;
        ++nextChunk_;
        plannedShots_ += plan.shots;
        wave.push_back(plan);
    }
    return wave;
}

void
AdaptiveSampler::absorb(const ChunkOutcome& outcome)
{
    shots_ += outcome.shots;
    failures_ += outcome.failures;
    if (shots_ == plannedShots_)
        evaluateStop();
}

void
AdaptiveSampler::evaluateStop()
{
    if (shots_ >= rule_.maxShots) {
        done_ = true;
        return;
    }
    if (rule_.targetRelErr > 0.0 && failures_ >= rule_.minFailures) {
        const double rate =
            static_cast<double>(failures_) / static_cast<double>(shots_);
        if (wilsonHalfWidth(failures_, shots_) <=
            rule_.targetRelErr * rate) {
            done_ = true;
            stoppedEarly_ = true;
        }
    }
}

} // namespace cyclone
