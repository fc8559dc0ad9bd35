#include "decoder/bposd_decoder.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace cyclone {

double
BpOsdStats::trivialFraction() const
{
    return decodes == 0
        ? 0.0
        : static_cast<double>(trivialShots) /
            static_cast<double>(decodes);
}

double
BpOsdStats::memoHitRate() const
{
    return decodes == 0
        ? 0.0
        : static_cast<double>(memoHits) / static_cast<double>(decodes);
}

double
BpOsdStats::meanBpIterations() const
{
    const size_t bpDecodes = decodes - trivialShots;
    return bpDecodes == 0
        ? 0.0
        : static_cast<double>(bpIterations) /
            static_cast<double>(bpDecodes);
}

double
BpOsdStats::waveLaneOccupancy() const
{
    return waveLaneSlots == 0
        ? 0.0
        : static_cast<double>(waveLanesFilled) /
            static_cast<double>(waveLaneSlots);
}

std::span<const StatField<BpOsdStats>>
BpOsdStats::fields()
{
    using S = BpOsdStats;
    static const StatField<S> kFields[] = {
        {"decodes", &S::decodes},
        {"bp_converged", &S::bpConverged},
        {"osd_invocations", &S::osdInvocations},
        {"osd_failures", &S::osdFailures},
        {"trivial_shots", &S::trivialShots},
        {"memo_hits", &S::memoHits},
        {"bp_iterations", &S::bpIterations},
        {"wave_groups", &S::waveGroups},
        {"wave_lane_slots", &S::waveLaneSlots},
        {"wave_lanes_filled", &S::waveLanesFilled},
        {"osd_batch_groups", &S::osdBatchGroups},
        {"staged_chunks", &S::stagedChunks},
        {"backend", &S::backend, MergeRule::First},
        {"trivial_fraction", &S::trivialFraction},
        {"memo_hit_rate", &S::memoHitRate},
        {"mean_bp_iterations", &S::meanBpIterations},
        {"wave_lane_occupancy", &S::waveLaneOccupancy},
    };
    return kFields;
}

BpOsdDecoder::BpOsdDecoder(const DetectorErrorModel& dem, BpOptions options)
    : dem_(dem), graph_(std::make_shared<const BpGraph>(dem)),
      options_(options), backend_(selectDecoderBackend().backend),
      bp_(graph_, options), osd_(dem)
{
    stats_.backend = backend_->name;
}

BpOsdStats
BpOsdDecoder::takeStats()
{
    BpOsdStats taken = stats_;
    stats_ = BpOsdStats{};
    stats_.backend = taken.backend;
    return taken;
}

uint64_t
BpOsdDecoder::observablesOf(const BitVec& errors) const
{
    uint64_t obs = 0;
    const std::vector<uint64_t>& words = errors.words();
    for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
            const size_t v = w * 64 +
                static_cast<size_t>(std::countr_zero(word));
            word &= word - 1;
            obs ^= dem_.mechanisms[v].observables;
        }
    }
    return obs;
}

uint64_t
BpOsdDecoder::observablesOf(const std::vector<uint8_t>& errors) const
{
    uint64_t obs = 0;
    for (size_t v = 0; v < errors.size(); ++v) {
        if (errors[v])
            obs ^= dem_.mechanisms[v].observables;
    }
    return obs;
}

BpOsdDecoder::DecodeOutcome
BpOsdDecoder::decodeCore(const BitVec& syndrome)
{
    DecodeOutcome outcome;
    outcome.converged = bp_.decode(syndrome);
    outcome.iterations = static_cast<uint32_t>(bp_.lastIterations());

    if (outcome.converged) {
        outcome.observables = observablesOf(bp_.hardDecision());
    } else if (osd_.decode(syndrome, bp_.posteriorLlr(),
                           errorScratch_)) {
        outcome.observables = observablesOf(errorScratch_);
    } else {
        // Syndrome outside the DEM column span; keep the BP guess.
        outcome.osdFailed = true;
        outcome.observables = observablesOf(bp_.hardDecision());
    }
    return outcome;
}

void
BpOsdDecoder::applyOutcomeStats(const DecodeOutcome& outcome)
{
    if (outcome.converged)
        ++stats_.bpConverged;
    else
        ++stats_.osdInvocations;
    if (outcome.osdFailed)
        ++stats_.osdFailures;
    stats_.bpIterations += outcome.iterations;
}

uint64_t
BpOsdDecoder::decode(const BitVec& syndrome)
{
    ++stats_.decodes;
    if (syndrome.isZero()) {
        // BP converges on the zero syndrome in zero iterations with an
        // all-zero correction; skip straight to that fixed point.
        ++stats_.trivialShots;
        ++stats_.bpConverged;
        return 0;
    }
    const DecodeOutcome outcome = decodeCore(syndrome);
    applyOutcomeStats(outcome);
    return outcome.observables;
}

void
BpOsdDecoder::beginStaged()
{
    CYCLONE_ASSERT(!stagedOpen_,
                   "beginStaged() with a staged group already open");
    stagedOpen_ = true;
    stagedShots_ = 0;
    stagedOffsets_.clear();
    // The memo is scoped to one staged group: a group's results must
    // not depend on what a worker decoded before, so a fixed staging
    // order gives the same counts at any thread count or chunk
    // schedule.
    memoEntries_.clear();
    memoIndex_.clear();
}

void
BpOsdDecoder::stageBatch(const ShotBatch& batch)
{
    CYCLONE_ASSERT(stagedOpen_,
                   "stageBatch() without an open staged group");
    CYCLONE_ASSERT(batch.numDetectors == dem_.numDetectors,
                   "batch detector count mismatch: "
                   << batch.numDetectors << " vs "
                   << dem_.numDetectors);
    if (!stagedOffsets_.empty())
        ++stats_.stagedChunks;
    stagedOffsets_.push_back(stagedShots_);

    if (syndromeScratch_.size() != batch.numDetectors)
        syndromeScratch_.resize(batch.numDetectors);
    for (size_t s = 0; s < batch.numShots; ++s) {
        syndromeScratch_.assignWords(batch.row(s), batch.syndromeWords());
        stageSyndrome(syndromeScratch_);
    }
}

void
BpOsdDecoder::stageSyndrome(const BitVec& syndrome)
{
    CYCLONE_ASSERT(stagedOpen_,
                   "stageSyndrome() without an open staged group");
    CYCLONE_ASSERT(syndrome.size() == dem_.numDetectors,
                   "syndrome detector count mismatch: "
                   << syndrome.size() << " vs " << dem_.numDetectors);
    const uint32_t shot = static_cast<uint32_t>(stagedShots_++);
    ++stats_.decodes;
    if (syndrome.isZero()) {
        ++stats_.trivialShots;
        ++stats_.bpConverged;
        return;
    }

    // Pass 1: group. A shot with detection events is bucketed by
    // distinct syndrome across the whole staged pool; each distinct
    // syndrome is decoded exactly once by flushStaged() and replayed
    // onto all its shots.
    std::vector<uint32_t>& bucket = memoIndex_[syndrome.hash()];
    for (uint32_t idx : bucket) {
        if (memoEntries_[idx].syndrome == syndrome) {
            memoEntries_[idx].shots.push_back(shot);
            return;
        }
    }
    bucket.push_back(static_cast<uint32_t>(memoEntries_.size()));
    MemoEntry entry;
    entry.syndrome = syndrome;
    entry.weight = entry.syndrome.popcount();
    entry.shots.push_back(shot);
    memoEntries_.push_back(std::move(entry));
}

void
BpOsdDecoder::flushStaged()
{
    CYCLONE_ASSERT(stagedOpen_,
                   "flushStaged() without an open staged group");
    stagedOpen_ = false;
    stagedPredicted_.assign(stagedShots_, 0);

    // Pass 2: decode each distinct syndrome of the pool, L at a time
    // through the wave kernel. A lane group iterates until its slowest
    // lane converges, so group syndromes of similar weight together:
    // weight tracks BP difficulty, which keeps fast lanes from idling
    // behind one hard syndrome. Ordering cannot change any outcome —
    // lanes never interact — it only reduces frozen-lane waste. The
    // stable sort keeps the grouping deterministic, and with several
    // chunks staged the pool fills whole L-wide groups where per-chunk
    // decoding would have emitted ragged tails.
    if (wave_ == nullptr && !memoEntries_.empty())
        wave_ = std::make_unique<BpWaveDecoder>(graph_, options_,
                                                *backend_);
    laneOrder_.resize(memoEntries_.size());
    for (size_t i = 0; i < laneOrder_.size(); ++i)
        laneOrder_[i] = static_cast<uint32_t>(i);
    std::stable_sort(
        laneOrder_.begin(), laneOrder_.end(),
        [&](uint32_t a, uint32_t b) {
            return memoEntries_[a].weight < memoEntries_[b].weight;
        });

    const size_t L = waveLaneWidth();
    const BitVec* lanes[64];
    for (size_t group = 0; group < laneOrder_.size(); group += L) {
        const size_t count = std::min(L, laneOrder_.size() - group);
        for (size_t i = 0; i < count; ++i)
            lanes[i] = &memoEntries_[laneOrder_[group + i]].syndrome;
        wave_->decodeWave(lanes, count);
        ++stats_.waveGroups;
        stats_.waveLaneSlots += L;
        stats_.waveLanesFilled += count;
        for (size_t i = 0; i < count; ++i) {
            MemoEntry& entry = memoEntries_[laneOrder_[group + i]];
            DecodeOutcome& outcome = entry.outcome;
            outcome.converged = wave_->laneConverged(i);
            outcome.iterations = wave_->laneIterations(i);
            if (!outcome.converged) {
                // OSD on the lane's posterior, read before the next
                // decodeWave overwrites it. The posterior and the
                // solve equal the scalar core's for this syndrome.
                ++stats_.osdBatchGroups;
                wave_->lanePosterior(i, posteriorScratch_);
                if (osd_.solve(entry.syndrome, posteriorScratch_,
                               osdFlips_)) {
                    uint64_t obs = 0;
                    for (uint32_t v : osdFlips_)
                        obs ^= dem_.mechanisms[v].observables;
                    outcome.observables = obs;
                    continue;
                }
                // Syndrome outside the DEM column span; keep the BP
                // guess.
                outcome.osdFailed = true;
            }
            // The lane's hard decision is bit-identical to the scalar
            // core's for this syndrome.
            wave_->laneHardDecision(i, hardScratch_);
            outcome.observables = observablesOf(hardScratch_);
        }
    }

    // Pass 3: replay each outcome — and its statistics — onto every
    // shot that carried the syndrome, so the aggregate counters stay
    // exactly what per-shot decoding would have produced.
    for (const MemoEntry& entry : memoEntries_) {
        for (size_t j = 0; j < entry.shots.size(); ++j) {
            if (j > 0)
                ++stats_.memoHits;
            applyOutcomeStats(entry.outcome);
            stagedPredicted_[entry.shots[j]] =
                entry.outcome.observables;
        }
    }
}

void
BpOsdDecoder::decodeBatch(const ShotBatch& batch,
                          std::vector<uint64_t>& predicted)
{
    beginStaged();
    stageBatch(batch);
    flushStaged();
    predicted = stagedPredicted_;
}

} // namespace cyclone
