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
        {"osd_shared_pivots", &S::osdSharedPivots},
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
      options_(options),
      // Dispatch once: on a CPU with no supported wave rung the choice
      // degrades to the scalar backend (lanes == 1) and the batch path
      // falls back to the scalar core — identical results, the wave is
      // purely a throughput feature.
      backendChoice_(selectDecoderBackend(options.waveLanes)),
      waveEnabled_(backendChoice_.lanes > 1), bp_(graph_, options),
      osd_(dem)
{
    stats_.backend = backendChoice_.backend->name;
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
BpOsdDecoder::bufferWaveLaneForOsd(size_t lane, uint32_t memoIdx)
{
    // Posteriors and hard decisions are only readable until the next
    // decodeWave call, so stage copies now; the OSD solve itself is
    // deferred until a full slab (or the end of pass 2) so shots can
    // share eliminations across wave groups.
    const size_t num_vars = dem_.mechanisms.size();
    if (osdPosteriors_.size() != kOsdFlushShots * num_vars)
        osdPosteriors_.resize(kOsdFlushShots * num_vars);

    PendingOsd pending;
    pending.memoIdx = memoIdx;
    pending.iterations = wave_->laneIterations(lane);
    wave_->laneHardDecision(lane, hardScratch_);
    pending.fallbackObservables = observablesOf(hardScratch_);

    wave_->lanePosterior(lane, posteriorScratch_);
    std::copy(posteriorScratch_.begin(), posteriorScratch_.end(),
              osdPosteriors_.begin() +
                  static_cast<std::ptrdiff_t>(osdPending_.size() *
                                              num_vars));
    osdPending_.push_back(pending);
    if (osdPending_.size() == kOsdFlushShots)
        flushOsdBatch();
}

void
BpOsdDecoder::flushOsdBatch()
{
    if (osdPending_.empty())
        return;
    const size_t num_vars = dem_.mechanisms.size();
    osdRequests_.resize(osdPending_.size());
    for (size_t i = 0; i < osdPending_.size(); ++i) {
        osdRequests_[i].syndrome =
            &memoEntries_[osdPending_[i].memoIdx].syndrome;
        osdRequests_[i].posteriorLlr =
            osdPosteriors_.data() + i * num_vars;
    }
    osd_.solveBatch(osdRequests_.data(), osdRequests_.size(),
                    osdResult_);
    stats_.osdBatchGroups += osdResult_.stats.groups;
    stats_.osdSharedPivots += osdResult_.stats.sharedPivots;

    for (size_t i = 0; i < osdPending_.size(); ++i) {
        const PendingOsd& pending = osdPending_[i];
        DecodeOutcome outcome;
        outcome.converged = false;
        outcome.iterations = pending.iterations;
        if (osdResult_.ok[i]) {
            // XOR of the flipped mechanisms' observables — the same
            // set of mechanisms the scalar errors vector marks, so
            // the XOR (order-insensitive) is identical.
            uint64_t obs = 0;
            for (size_t f = osdResult_.flipOffsets[i];
                 f < osdResult_.flipOffsets[i + 1]; ++f)
                obs ^= dem_.mechanisms[osdResult_.flips[f]].observables;
            outcome.observables = obs;
        } else {
            outcome.osdFailed = true;
            outcome.observables = pending.fallbackObservables;
        }
        memoEntries_[pending.memoIdx].outcome = outcome;
    }
    osdPending_.clear();
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
    stagedOffsets_.assign(1, 0);
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
    if (stagedOffsets_.size() > 1)
        ++stats_.stagedChunks;
    const size_t base = stagedShots_;

    const size_t syndrome_words = batch.syndromeWords();
    if (syndromeScratch_.size() != batch.numDetectors)
        syndromeScratch_.resize(batch.numDetectors);

    // Pass 1: group. Shots with detection events are bucketed by
    // distinct syndrome across the whole staged pool; each distinct
    // syndrome is decoded exactly once by flushStaged() and replayed
    // onto all its shots.
    for (size_t wave = 0; wave < batch.numWaves(); ++wave) {
        const uint64_t valid = batch.waveMask(wave);
        const uint64_t active = batch.activeMask(wave) & valid;
        const size_t shots_in_wave =
            static_cast<size_t>(std::popcount(valid));
        const size_t trivial_in_wave = shots_in_wave -
            static_cast<size_t>(std::popcount(active));

        stats_.decodes += shots_in_wave;
        stats_.trivialShots += trivial_in_wave;
        stats_.bpConverged += trivial_in_wave;
        if (active == 0)
            continue;

        // Shot-major view of this wave's syndromes (zero-padded rows
        // keep bits past numDetectors clear).
        batch.extractWave(wave, waveScratch_);

        uint64_t pending = active;
        while (pending) {
            const size_t s =
                static_cast<size_t>(std::countr_zero(pending));
            pending &= pending - 1;
            const uint32_t shot =
                static_cast<uint32_t>(base + wave * 64 + s);
            syndromeScratch_.assignWords(
                waveScratch_.data() + s * syndrome_words,
                syndrome_words);

            const uint64_t key = syndromeScratch_.hash();
            std::vector<uint32_t>& bucket = memoIndex_[key];
            MemoEntry* hit = nullptr;
            for (uint32_t idx : bucket) {
                if (memoEntries_[idx].syndrome == syndromeScratch_) {
                    hit = &memoEntries_[idx];
                    break;
                }
            }
            if (hit != nullptr) {
                hit->shots.push_back(shot);
                continue;
            }
            bucket.push_back(
                static_cast<uint32_t>(memoEntries_.size()));
            MemoEntry entry;
            entry.syndrome = syndromeScratch_;
            entry.weight = entry.syndrome.popcount();
            entry.shots.push_back(shot);
            memoEntries_.push_back(std::move(entry));
        }
    }

    stagedShots_ = base + batch.numShots;
    stagedOffsets_.push_back(stagedShots_);
}

void
BpOsdDecoder::flushStaged()
{
    CYCLONE_ASSERT(stagedOpen_,
                   "flushStaged() without an open staged group");
    stagedOpen_ = false;
    stagedPredicted_.assign(stagedShots_, 0);

    // Pass 2: decode each distinct syndrome of the pool — lane groups
    // through the wave kernel, or one at a time through the scalar
    // core when the wave kernel is disabled (waveLanes == 1, or no
    // supported backend).
    if (waveEnabled_ && wave_ == nullptr && !memoEntries_.empty())
        wave_ = std::make_unique<BpWaveDecoder>(
            graph_, options_, *backendChoice_.backend);
    if (waveEnabled_ && wave_ != nullptr) {
        // A lane group iterates until its slowest lane converges, so
        // group syndromes of similar weight together: weight tracks
        // BP difficulty, which keeps fast lanes from idling behind
        // one hard syndrome. Ordering cannot change any outcome —
        // lanes never interact — it only reduces frozen-lane waste.
        // The stable sort keeps the grouping deterministic, and with
        // several chunks staged the pool fills whole L-wide groups
        // where per-chunk decoding would have emitted ragged tails.
        laneOrder_.resize(memoEntries_.size());
        for (size_t i = 0; i < laneOrder_.size(); ++i)
            laneOrder_[i] = static_cast<uint32_t>(i);
        std::stable_sort(
            laneOrder_.begin(), laneOrder_.end(),
            [&](uint32_t a, uint32_t b) {
                return memoEntries_[a].weight < memoEntries_[b].weight;
            });

        const size_t L = wave_->laneWidth();
        const BitVec* lanes[64];
        osdPending_.clear();
        for (size_t group = 0; group < laneOrder_.size(); group += L) {
            const size_t count =
                std::min(L, laneOrder_.size() - group);
            for (size_t i = 0; i < count; ++i)
                lanes[i] = &memoEntries_[laneOrder_[group + i]].syndrome;
            wave_->decodeWave(lanes, count);
            ++stats_.waveGroups;
            stats_.waveLaneSlots += L;
            stats_.waveLanesFilled += count;
            for (size_t i = 0; i < count; ++i) {
                const uint32_t memoIdx = laneOrder_[group + i];
                if (!wave_->laneConverged(i)) {
                    // Defer OSD: stage this lane for the batched solve.
                    bufferWaveLaneForOsd(i, memoIdx);
                    continue;
                }
                // The lane's hard decision is bit-identical to the
                // scalar core's for this syndrome.
                DecodeOutcome& outcome = memoEntries_[memoIdx].outcome;
                outcome.converged = true;
                outcome.iterations = wave_->laneIterations(i);
                wave_->laneHardDecision(i, hardScratch_);
                outcome.observables = observablesOf(hardScratch_);
            }
        }
        flushOsdBatch();
    } else {
        for (MemoEntry& entry : memoEntries_)
            entry.outcome = decodeCore(entry.syndrome);
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
