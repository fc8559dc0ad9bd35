#include "decoder/osd.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/gf2.h"
#include "common/logging.h"

namespace cyclone {

namespace {

constexpr uint32_t kNoPivot = static_cast<uint32_t>(-1);

/** Words per row of the dual-basis filter, 64 lanes each. On the
 *  campaign-built hgp225 DEM (1,296 detectors) the batched stage
 *  solves ~220 shots/s with 8 words, ~150 with 4 (the filter switches
 *  on later) and ~175 with 16 (every test XORs twice the words). */
constexpr size_t kDualWords = 8;

/** Monotonic bit transform of a float LLR: float ordering maps to
 *  unsigned ordering exactly (negative floats bit-complemented,
 *  positives offset), and -0.0 is canonicalized to +0.0 so the
 *  (llr, index) pair ties on index just like the scalar comparator. */
uint32_t
llrSortKey(float llr)
{
    uint32_t bits = std::bit_cast<uint32_t>(llr);
    if (bits == 0x80000000u)
        bits = 0;
    return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/** dst ^= src over one dual-basis row. */
inline void
xorDualRow(uint64_t* dst, const uint64_t* src)
{
    for (size_t w = 0; w < kDualWords; ++w)
        dst[w] ^= src[w];
}

} // namespace

OsdDecoder::OsdDecoder(const DetectorErrorModel& dem, size_t order)
    : dem_(dem), order_(order), words_((dem.numDetectors + 63) / 64)
{}

size_t
OsdDecoder::augWords() const
{
    return (dem_.numDetectors + 63) / 64;
}

bool
OsdDecoder::decode(const BitVec& syndrome,
                   const std::vector<float>& posterior_llr,
                   std::vector<uint8_t>& errors)
{
    const size_t num_vars = dem_.mechanisms.size();
    CYCLONE_ASSERT(posterior_llr.size() == num_vars,
                   "posterior length mismatch");
    errors.assign(num_vars, 0);

    // Reliability order, consumed lazily: most-likely-flipped (lowest
    // LLR, ties by index) first. Heap pops follow the exact sorted
    // sequence, so the elimination sees the same columns in the same
    // order a full sort would give.
    heap_.clear();
    heap_.reserve(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v)
        heap_.emplace_back(posterior_llr[v], v);
    std::make_heap(heap_.begin(), heap_.end(),
                   std::greater<std::pair<float, uint32_t>>());

    // Pivot storage: dense column + augmentation over pivot slots.
    const size_t max_pivots = dem_.numDetectors;
    const size_t aug_words = augWords();
    pivotCols_.resize(max_pivots * words_);
    pivotAugs_.resize(max_pivots * aug_words);
    pivotVar_.clear();
    pivotByRow_.assign(dem_.numDetectors, kNoPivot);

    // Rejected (linearly dependent) columns kept for the order-lambda
    // sweep: each stores the pivot combination reproducing it.
    rejectVar_.clear();
    rejectAugs_.resize(order_ * aug_words);

    colScratch_.assign(words_, 0);
    augScratch_.assign(aug_words, 0);

    const size_t stop_rank = rankKnown_ ? rank_ : max_pivots;
    while (!heap_.empty()) {
        if (pivotVar_.size() >= stop_rank &&
            rejectVar_.size() >= order_) {
            break;
        }
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<std::pair<float, uint32_t>>());
        const uint32_t v_idx = heap_.back().second;
        heap_.pop_back();
        // Densify the candidate column.
        std::fill(colScratch_.begin(), colScratch_.end(), 0);
        std::fill(augScratch_.begin(), augScratch_.end(), 0);
        for (uint32_t d : dem_.mechanisms[v_idx].detectors)
            colScratch_[d >> 6] |= uint64_t(1) << (d & 63);
        // Reduce against existing pivots.
        while (true) {
            const int row =
                gf2::firstSetBit(colScratch_.data(), words_);
            if (row < 0) {
                // Linearly dependent: candidate for the sweep.
                if (rejectVar_.size() < order_) {
                    std::copy(augScratch_.begin(), augScratch_.end(),
                              rejectAugs_.begin() +
                                  rejectVar_.size() * aug_words);
                    rejectVar_.push_back(v_idx);
                }
                break;
            }
            const uint32_t p = pivotByRow_[static_cast<size_t>(row)];
            if (p == kNoPivot) {
                const size_t slot = pivotVar_.size();
                augScratch_[slot >> 6] |= uint64_t(1) << (slot & 63);
                std::copy(colScratch_.begin(), colScratch_.end(),
                          pivotCols_.begin() + slot * words_);
                std::copy(augScratch_.begin(), augScratch_.end(),
                          pivotAugs_.begin() + slot * aug_words);
                pivotVar_.push_back(v_idx);
                pivotByRow_[static_cast<size_t>(row)] =
                    static_cast<uint32_t>(slot);
                break;
            }
            gf2::xorWords(colScratch_.data(),
                          pivotCols_.data() + p * words_, words_);
            gf2::xorWords(augScratch_.data(),
                          pivotAugs_.data() + p * aug_words,
                          aug_words);
        }
    }
    if (!rankKnown_) {
        rank_ = pivotVar_.size();
        rankKnown_ = true;
    }

    // Reduce the syndrome through the pivot basis.
    residual_.assign(words_, 0);
    for (size_t i = 0; i < syndrome.size(); ++i) {
        if (syndrome.get(i))
            residual_[i >> 6] |= uint64_t(1) << (i & 63);
    }
    baseAug_.assign(aug_words, 0);
    while (true) {
        const int row = gf2::firstSetBit(residual_.data(), words_);
        if (row < 0)
            break;
        const uint32_t p = pivotByRow_[static_cast<size_t>(row)];
        if (p == kNoPivot)
            return false; // Syndrome outside the column span.
        gf2::xorWords(residual_.data(),
                      pivotCols_.data() + p * words_, words_);
        gf2::xorWords(baseAug_.data(),
                      pivotAugs_.data() + p * aug_words, aug_words);
    }

    // Score a pivot-combination (plus optional extra column) by total
    // posterior LLR: lower = more probable. Shared with the batch
    // path — the bit-identity contract depends on this accumulation
    // existing in exactly one place.
    auto score = [&](const uint64_t* aug, double extra) {
        return scoreAug(aug, posterior_llr.data(), extra);
    };

    // OSD-0 candidate.
    double best_score = score(baseAug_.data(), 0.0);
    std::vector<uint64_t>& best_aug = candidateAug_;
    best_aug.assign(baseAug_.begin(), baseAug_.end());
    uint32_t best_extra = kNoPivot;

    // Order-lambda sweep: include one rejected column j, whose pivot
    // combination is rejectAugs_[j]; the solution becomes
    // baseAug_ ^ rejectAugs_[j] with column j flipped on.
    sweepAug_.resize(aug_words);
    for (size_t r = 0; r < rejectVar_.size(); ++r) {
        const uint64_t* reject_aug = rejectAugs_.data() + r * aug_words;
        for (size_t w = 0; w < aug_words; ++w)
            sweepAug_[w] = baseAug_[w] ^ reject_aug[w];
        const double s = score(sweepAug_.data(),
                               posterior_llr[rejectVar_[r]]);
        if (s < best_score) {
            best_score = s;
            best_aug.assign(sweepAug_.begin(), sweepAug_.end());
            best_extra = rejectVar_[r];
        }
    }

    for (size_t slot = 0; slot < pivotVar_.size(); ++slot) {
        if ((best_aug[slot >> 6] >> (slot & 63)) & 1)
            errors[pivotVar_[slot]] = 1;
    }
    if (best_extra != kNoPivot)
        errors[best_extra] = 1;
    return true;
}

// --------------------------------------------------------------------
// Batched path.
//
// The batch core reproduces the scalar algorithm above exactly — the
// pivot/reject choice is a pure function of the reliability
// permutation, and the scoring loops below run in the scalar order —
// while restructuring the work: the candidate order comes from a
// stable radix sort instead of a heap, augmentation tracking is
// skipped (and rebuilt from a hit list for the rare pivot) once the
// reject quota is full, the long dependent tail is filtered by a
// bit-sliced dual (left-nullspace) basis at one row XOR per candidate
// detector, candidates are prefetched ahead in the reliability order,
// and groups of syndromes back-substitute together in bit-sliced
// multi-RHS form.
// --------------------------------------------------------------------

void
OsdDecoder::sortReliability(const float* llr)
{
    // Sort (llr, index) ascending on a monotonic bit transform of the
    // float key (llrSortKey): the uint64 (key << 32 | index) order is
    // exactly the (llr, index) comparator order of the scalar heap,
    // and keys are unique (index embedded), so any exact sort of the
    // keys yields bit-for-bit the scalar heap's pop order.
    //
    // The first call per decoder/batch radix-sorts everything. Later
    // calls exploit that consecutive shots' posteriors agree on most
    // mechanisms: diff the transformed keys against keyOfVar_ and,
    // when few moved, sort just the changed entries and merge them
    // into the previous order — dropping each changed var's stale
    // entry on the way. A -0.0 <-> +0.0 flip transforms to the same
    // key and is correctly treated as unchanged.
    const size_t n = dem_.mechanisms.size();
    if (!sortedValid_ || keyOfVar_.size() != n) {
        keyOfVar_.resize(n);
        orderKeys_.resize(n);
        orderAlt_.resize(n);
        for (uint32_t v = 0; v < n; ++v) {
            const uint32_t key = llrSortKey(llr[v]);
            keyOfVar_[v] = key;
            orderKeys_[v] = (uint64_t(key) << 32) | v;
        }
        radixSortKeys();
        sortedValid_ = true;
        return;
    }

    changedKeys_.clear();
    for (uint32_t v = 0; v < n; ++v) {
        const uint32_t key = llrSortKey(llr[v]);
        if (key != keyOfVar_[v]) {
            keyOfVar_[v] = key;
            changedKeys_.push_back((uint64_t(key) << 32) | v);
        }
    }
    if (changedKeys_.empty())
        return;
    if (changedKeys_.size() > n / 2) {
        // Majority moved: a fresh radix sort beats the merge.
        for (uint32_t v = 0; v < n; ++v)
            orderKeys_[v] = (uint64_t(keyOfVar_[v]) << 32) | v;
        radixSortKeys();
        return;
    }

    ++incrementalSorts_;
    std::sort(changedKeys_.begin(), changedKeys_.end());
    // One pass: merge the sorted changed entries with the previous
    // order, skipping stale entries (an entry is stale iff its key no
    // longer matches keyOfVar_ — only changed vars mismatch, and each
    // contributes exactly one fresh entry from changedKeys_).
    const uint64_t* changed = changedKeys_.data();
    const size_t numChanged = changedKeys_.size();
    size_t ci = 0;
    size_t outIdx = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t e = orderKeys_[i];
        const uint32_t v = static_cast<uint32_t>(e & 0xffffffffu);
        if (static_cast<uint32_t>(e >> 32) != keyOfVar_[v])
            continue; // Stale entry of a changed var.
        while (ci < numChanged && changed[ci] < e)
            orderAlt_[outIdx++] = changed[ci++];
        orderAlt_[outIdx++] = e;
    }
    while (ci < numChanged)
        orderAlt_[outIdx++] = changed[ci++];
    CYCLONE_ASSERT(outIdx == n, "incremental sort lost entries: "
                   << outIdx << " vs " << n);
    orderKeys_.swap(orderAlt_);
}

void
OsdDecoder::radixSortKeys()
{
    const size_t n = orderKeys_.size();
    // Three stable LSD passes over the 32 key bits: 11 + 11 + 10.
    static constexpr int kShift[3] = {32, 43, 54};
    static constexpr uint32_t kMask[3] = {2047, 2047, 1023};
    uint32_t hist[3][2048];
    std::fill(&hist[0][0], &hist[0][0] + 3 * 2048, 0u);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t k = orderKeys_[i];
        ++hist[0][(k >> kShift[0]) & kMask[0]];
        ++hist[1][(k >> kShift[1]) & kMask[1]];
        ++hist[2][(k >> kShift[2]) & kMask[2]];
    }
    uint64_t* src = orderKeys_.data();
    uint64_t* dst = orderAlt_.data();
    for (int pass = 0; pass < 3; ++pass) {
        uint32_t sum = 0;
        for (uint32_t b = 0; b <= kMask[pass]; ++b) {
            const uint32_t count = hist[pass][b];
            hist[pass][b] = sum;
            sum += count;
        }
        for (size_t i = 0; i < n; ++i) {
            const uint64_t k = src[i];
            dst[hist[pass][(k >> kShift[pass]) & kMask[pass]]++] = k;
        }
        std::swap(src, dst);
    }
    // Three passes land the sorted order back in orderKeys_' buffer
    // only if it started in orderAlt_; after the final swap `src`
    // points at the sorted data.
    if (src != orderKeys_.data())
        orderKeys_.swap(orderAlt_);
}

void
OsdDecoder::buildDualBasis()
{
    // Bit-sliced left-nullspace basis of the current pivot span: one
    // basis vector per uncovered row (at most 64 x kDualWords, one bit
    // lane each), derived by back-substitution through the pivot
    // columns in decreasing leading-row order. Every pivot column q
    // has its leading row as its lowest set bit, so processing rows
    // top-down never disturbs an already-satisfied constraint.
    const size_t num_rows = dem_.numDetectors;
    dualSlice_.assign(num_rows * kDualWords, 0);
    size_t lane = 0;
    for (size_t r = 0; r < num_rows; ++r) {
        if (pivotByRow_[r] == kNoPivot) {
            dualSlice_[r * kDualWords + lane / 64] = uint64_t(1)
                << (lane % 64);
            ++lane;
        }
    }
    CYCLONE_ASSERT(lane <= 64 * kDualWords,
                   "dual basis needs " << lane << " lanes");
    for (size_t r = num_rows; r-- > 0;) {
        const uint32_t p = pivotByRow_[r];
        if (p == kNoPivot)
            continue;
        const uint64_t* pivot_col = pivotCols_.data() + p * words_;
        uint64_t t[kDualWords] = {};
        for (size_t w = 0; w < words_; ++w) {
            uint64_t word = pivot_col[w];
            while (word != 0) {
                const size_t d = w * 64 +
                    static_cast<size_t>(std::countr_zero(word));
                word &= word - 1;
                xorDualRow(t, dualSlice_.data() + d * kDualWords);
            }
        }
        std::copy(t, t + kDualWords,
                  dualSlice_.begin() +
                      static_cast<std::ptrdiff_t>(r * kDualWords));
    }
}

void
OsdDecoder::runElimination(const float* llr)
{
    const size_t num_vars = dem_.mechanisms.size();
    const size_t max_pivots = dem_.numDetectors;
    const size_t aug_words = augWords();

    sortReliability(llr);

    // Pivot storage is shared with the scalar path (same layout):
    // columns and augmentations stay in separate arrays so the
    // column-only reduction mode below keeps its working set at
    // max_pivots x words_ — small enough to stay cache-resident,
    // which is where the batch core's elimination speedup comes from.
    pivotCols_.resize(max_pivots * words_);
    pivotAugs_.resize(max_pivots * aug_words);
    pivotVar_.clear();
    pivotByRow_.assign(dem_.numDetectors, kNoPivot);
    rejectVar_.clear();
    rejectAugs_.resize(order_ * aug_words);
    inspected_.clear();
    colScratch_.resize(words_);
    augScratch_.resize(aug_words);

    const size_t stop_rank = rankKnown_ ? rank_ : max_pivots;
    const DemMechanism* mechs = dem_.mechanisms.data();
    auto var_at = [this](size_t i) {
        return static_cast<uint32_t>(orderKeys_[i] & 0xffffffffu);
    };
    bool dual_active = false;
    uint64_t dual_t[kDualWords] = {};
    for (size_t idx = 0; idx < num_vars; ++idx) {
        if (pivotVar_.size() >= stop_rank &&
            rejectVar_.size() >= order_) {
            break;
        }
        // Once the dual filter is on, a candidate costs a few row
        // XORs, and it would wait on two dependent cache misses (the
        // mechanism, then its detector list) without these.
        if (idx + 16 < num_vars)
            __builtin_prefetch(mechs + var_at(idx + 16));
        if (idx + 8 < num_vars)
            __builtin_prefetch(mechs[var_at(idx + 8)].detectors.data());
        const uint32_t v_idx = var_at(idx);
        inspected_.push_back(v_idx);

        const bool track_aug = rejectVar_.size() < order_;

        // Once the reject quota is full, dependent candidates carry
        // no information — and the long tail of the elimination is
        // almost entirely dependent candidates chasing the remaining
        // pivots. When at most 64 x kDualWords rows remain uncovered,
        // test dependence against the bit-sliced left-nullspace basis
        // (a row XOR per detector of the raw candidate): exact, since
        // Y c = 0 iff c lies in the pivot span. Only true pivots pay
        // for a reduction from here on.
        if (!dual_active && !track_aug &&
            max_pivots - pivotVar_.size() <= 64 * kDualWords) {
            if (max_pivots - pivotVar_.size() > 64)
                ++wideDualBases_;
            buildDualBasis();
            dual_active = true;
        }
        if (dual_active) {
            std::fill(dual_t, dual_t + kDualWords, 0);
            for (uint32_t d : mechs[v_idx].detectors)
                xorDualRow(dual_t, dualSlice_.data() + d * kDualWords);
            uint64_t any = 0;
            for (uint64_t w : dual_t)
                any |= w;
            if (any == 0)
                continue; // Dependent; scalar would discard it too.
        }

        uint64_t* cand = colScratch_.data();
        uint64_t* aug = augScratch_.data();
        std::fill(cand, cand + words_, 0);
        if (track_aug)
            std::fill(aug, aug + aug_words, 0);
        else
            hitSlots_.clear();
        for (uint32_t d : mechs[v_idx].detectors)
            cand[d >> 6] |= uint64_t(1) << (d & 63);

        // Reduce against existing pivots. Rows visited strictly
        // ascend, so each rescan starts at the last cleared word.
        int row = gf2::firstSetBit(cand, words_);
        while (row >= 0) {
            const uint32_t p = pivotByRow_[static_cast<size_t>(row)];
            if (p == kNoPivot)
                break;
            gf2::xorWords(cand, pivotCols_.data() + p * words_,
                          words_);
            if (track_aug)
                gf2::xorWords(aug, pivotAugs_.data() + p * aug_words,
                              aug_words);
            else
                hitSlots_.push_back(p);
            row = gf2::firstSetBit(cand, words_,
                                   static_cast<size_t>(row) >> 6);
        }

        if (row < 0) {
            // Linearly dependent: candidate for the sweep (the
            // aug-free mode only runs once the quota is full).
            if (track_aug) {
                std::copy(aug, aug + aug_words,
                          rejectAugs_.begin() +
                              rejectVar_.size() * aug_words);
                rejectVar_.push_back(v_idx);
            }
            continue;
        }

        // Independent: install as the next pivot.
        const size_t slot = pivotVar_.size();
        if (!track_aug) {
            // Rebuild the skipped augmentation from the hit list:
            // aug = e_slot ^ XOR of the hit pivots' augmentations.
            std::fill(aug, aug + aug_words, 0);
            for (uint32_t h : hitSlots_)
                gf2::xorWords(aug, pivotAugs_.data() + h * aug_words,
                              aug_words);
        }
        aug[slot >> 6] |= uint64_t(1) << (slot & 63);
        std::copy(cand, cand + words_,
                  pivotCols_.begin() + slot * words_);
        std::copy(aug, aug + aug_words,
                  pivotAugs_.begin() + slot * aug_words);
        pivotVar_.push_back(v_idx);
        pivotByRow_[static_cast<size_t>(row)] =
            static_cast<uint32_t>(slot);

        if (dual_active) {
            // Shrink the dual basis to stay orthogonal to the new
            // pivot: Y q = dual_t (the raw-candidate test value —
            // identical, since Y annihilates every older pivot).
            // Absorb lane j, dual_t's lowest set lane, into the others
            // and retire it.
            size_t jw = 0;
            while (dual_t[jw] == 0)
                ++jw;
            const uint64_t j_bit = uint64_t(1)
                << std::countr_zero(dual_t[jw]);
            const size_t num_rows = dem_.numDetectors;
            for (size_t d = 0; d < num_rows; ++d) {
                uint64_t* y = dualSlice_.data() + d * kDualWords;
                if ((y[jw] & j_bit) != 0)
                    xorDualRow(y, dual_t);
            }
        }
    }

    if (!rankKnown_) {
        rank_ = pivotVar_.size();
        rankKnown_ = true;
    }

    // Stamp the inspected set for the ordering-prefix membership test.
    inspectedStamp_.resize(num_vars, 0);
    ++stampEpoch_;
    for (uint32_t v : inspected_)
        inspectedStamp_[v] = stampEpoch_;
}

bool
OsdDecoder::matchesOrdering(const float* llr)
{
    // A shot shares the leader's elimination iff the leader's
    // inspected sequence is exactly this shot's sorted reliability
    // prefix: (a) the sequence ascends under this shot's keys, and
    // (b) every uninspected column keys after the sequence's last
    // element. Both checks are exact — keys are (LLR, index) pairs,
    // so ties resolve identically to the scalar heap.
    const size_t k = inspected_.size();
    if (k == 0)
        return true;
    std::pair<float, uint32_t> prev{llr[inspected_[0]], inspected_[0]};
    for (size_t i = 1; i < k; ++i) {
        const std::pair<float, uint32_t> cur{llr[inspected_[i]],
                                             inspected_[i]};
        if (!(prev < cur))
            return false;
        prev = cur;
    }
    const size_t num_vars = dem_.mechanisms.size();
    if (k == num_vars)
        return true;
    for (uint32_t v = 0; v < num_vars; ++v) {
        if (inspectedStamp_[v] == stampEpoch_)
            continue;
        if (!(prev < std::pair<float, uint32_t>{llr[v], v}))
            return false;
    }
    return true;
}

double
OsdDecoder::scoreAug(const uint64_t* aug, const float* llr,
                     double extra) const
{
    // Must accumulate in ascending slot order: the scalar path adds
    // the same floats to a double in this order, and bit-identity of
    // the tie-breaking comparisons depends on it.
    double total = extra;
    for (size_t slot = 0; slot < pivotVar_.size(); ++slot) {
        if ((aug[slot >> 6] >> (slot & 63)) & 1)
            total += llr[pivotVar_[slot]];
    }
    return total;
}

void
OsdDecoder::scoreAndEmitShot(uint32_t shot, const float* llr,
                             OsdBatchResult& out)
{
    // Scoring and the order-lambda sweep over shotAug_, identical to
    // the scalar tail: same float-to-double accumulation order, same
    // strict-less tie rule, same slot-ascending flip emission.
    const size_t aug_words = augWords();
    const size_t flip_stride = dem_.numDetectors + 1;
    sweepAug_.resize(std::max<size_t>(aug_words, 1));

    double best_score = scoreAug(shotAug_.data(), llr, 0.0);
    candidateAug_.assign(shotAug_.begin(), shotAug_.end());
    uint32_t best_extra = kNoPivot;
    for (size_t r = 0; r < rejectVar_.size(); ++r) {
        const uint64_t* reject_aug = rejectAugs_.data() + r * aug_words;
        for (size_t w = 0; w < aug_words; ++w)
            sweepAug_[w] = shotAug_[w] ^ reject_aug[w];
        const double sc =
            scoreAug(sweepAug_.data(), llr, llr[rejectVar_[r]]);
        if (sc < best_score) {
            best_score = sc;
            candidateAug_.assign(sweepAug_.begin(), sweepAug_.end());
            best_extra = rejectVar_[r];
        }
    }

    uint32_t* flips = flipScratch_.data() + shot * flip_stride;
    uint32_t n_flips = 0;
    for (size_t slot = 0; slot < pivotVar_.size(); ++slot) {
        if ((candidateAug_[slot >> 6] >> (slot & 63)) & 1)
            flips[n_flips++] = pivotVar_[slot];
    }
    if (best_extra != kNoPivot)
        flips[n_flips++] = best_extra;
    flipCount_[shot] = n_flips;
    out.ok[shot] = 1;
}

void
OsdDecoder::solveGroup(const OsdShotRequest* shots,
                       const uint32_t* members, size_t memberCount,
                       OsdBatchResult& out)
{
    const size_t aug_words = augWords();
    const size_t num_rows = dem_.numDetectors;

    // Small groups back-substitute shot by shot with word XORs — the
    // bit-sliced sweep below walks every set bit of every touched
    // pivot column individually, which only amortizes once enough
    // shots share each visit.
    if (memberCount < 8) {
        shotAug_.assign(std::max<size_t>(aug_words, 1), 0);
        for (size_t i = 0; i < memberCount; ++i) {
            const uint32_t shot = members[i];
            const BitVec& syndrome = *shots[shot].syndrome;
            residual_.assign(std::max<size_t>(words_, 1), 0);
            const std::vector<uint64_t>& sw = syndrome.words();
            std::copy(sw.begin(), sw.end(), residual_.begin());
            std::fill(shotAug_.begin(), shotAug_.end(), 0);
            bool ok = true;
            int row = gf2::firstSetBit(residual_.data(), words_);
            while (row >= 0) {
                const uint32_t p =
                    pivotByRow_[static_cast<size_t>(row)];
                if (p == kNoPivot) {
                    ok = false; // Syndrome outside the column span.
                    break;
                }
                gf2::xorWords(residual_.data(),
                              pivotCols_.data() + p * words_, words_);
                gf2::xorWords(shotAug_.data(),
                              pivotAugs_.data() + p * aug_words,
                              aug_words);
                row = gf2::firstSetBit(residual_.data(), words_,
                                       static_cast<size_t>(row) >> 6);
            }
            if (!ok) {
                out.ok[shot] = 0;
                flipCount_[shot] = 0;
                continue;
            }
            scoreAndEmitShot(shot, shots[shot].posteriorLlr, out);
        }
        return;
    }

    for (size_t chunk = 0; chunk < memberCount; chunk += 64) {
        const size_t cn = std::min<size_t>(64, memberCount - chunk);

        // Transpose the chunk's syndromes into row-major bit-sliced
        // form: word r carries bit s for shot s of this chunk.
        rhsRows_.assign(num_rows, 0);
        for (size_t s = 0; s < cn; ++s) {
            const BitVec& syndrome =
                *shots[members[chunk + s]].syndrome;
            const std::vector<uint64_t>& sw = syndrome.words();
            for (size_t w = 0; w < sw.size(); ++w) {
                uint64_t word = sw[w];
                while (word != 0) {
                    const size_t d = w * 64 +
                        static_cast<size_t>(std::countr_zero(word));
                    word &= word - 1;
                    rhsRows_[d] |= uint64_t(1) << s;
                }
            }
        }

        // Bit-sliced multi-RHS reduction through the pivot basis.
        // Rows ascend; a pivot's column leads at its own row, so the
        // sweep performs, lane by lane, exactly the XOR sequence the
        // scalar residual loop performs per shot. Lanes never
        // interact: each XOR only flips the shots in `mask`.
        rhsAug_.assign(pivotVar_.size(), 0);
        uint64_t fail_mask = 0;
        for (size_t r = 0; r < num_rows; ++r) {
            const uint64_t mask = rhsRows_[r];
            if (mask == 0)
                continue;
            const uint32_t p = pivotByRow_[r];
            if (p == kNoPivot) {
                // These shots' syndromes leave the column span here —
                // the scalar path fails them at this same row. Later
                // XORs on their lanes are discarded with the lane.
                fail_mask |= mask;
                continue;
            }
            const uint64_t* pivot_col = pivotCols_.data() + p * words_;
            for (size_t w = 0; w < words_; ++w) {
                uint64_t word = pivot_col[w];
                while (word != 0) {
                    const size_t r2 = w * 64 +
                        static_cast<size_t>(std::countr_zero(word));
                    word &= word - 1;
                    rhsRows_[r2] ^= mask;
                }
            }
            const uint64_t* pivot_aug =
                pivotAugs_.data() + p * aug_words;
            for (size_t w = 0; w < aug_words; ++w) {
                uint64_t word = pivot_aug[w];
                while (word != 0) {
                    const size_t slot = w * 64 +
                        static_cast<size_t>(std::countr_zero(word));
                    word &= word - 1;
                    rhsAug_[slot] ^= mask;
                }
            }
        }

        // Per-shot aug extraction, then the shared scoring tail.
        shotAug_.assign(std::max<size_t>(aug_words, 1), 0);
        for (size_t s = 0; s < cn; ++s) {
            const uint32_t shot = members[chunk + s];
            if ((fail_mask >> s) & 1) {
                out.ok[shot] = 0;
                flipCount_[shot] = 0;
                continue;
            }
            std::fill(shotAug_.begin(), shotAug_.end(), 0);
            for (size_t slot = 0; slot < pivotVar_.size(); ++slot) {
                if ((rhsAug_[slot] >> s) & 1)
                    shotAug_[slot >> 6] |= uint64_t(1) << (slot & 63);
            }
            scoreAndEmitShot(shot, shots[shot].posteriorLlr, out);
        }
    }
}

void
OsdDecoder::solveBatch(const OsdShotRequest* shots, size_t count,
                       OsdBatchResult& out)
{
    out.ok.assign(count, 0);
    out.flips.clear();
    out.flipOffsets.assign(count + 1, 0);
    out.stats = {};
    incrementalSorts_ = 0;
    wideDualBases_ = 0;
    if (count == 0)
        return;

    const size_t flip_stride = dem_.numDetectors + 1;
    flipScratch_.resize(count * flip_stride);
    flipCount_.assign(count, 0);
    shotAssigned_.assign(count, 0);

    // Leader/member grouping: the first unassigned shot runs a full
    // elimination; every later unassigned shot whose reliability
    // ordering shares the whole inspected prefix joins its group and
    // skips elimination entirely.
    for (size_t i = 0; i < count; ++i) {
        if (shotAssigned_[i])
            continue;
        runElimination(shots[i].posteriorLlr);
        groupMembers_.clear();
        groupMembers_.push_back(static_cast<uint32_t>(i));
        shotAssigned_[i] = 1;
        for (size_t j = i + 1; j < count; ++j) {
            if (shotAssigned_[j])
                continue;
            if (matchesOrdering(shots[j].posteriorLlr)) {
                shotAssigned_[j] = 1;
                groupMembers_.push_back(static_cast<uint32_t>(j));
            }
        }
        ++out.stats.groups;
        out.stats.groupedShots += groupMembers_.size() - 1;
        out.stats.sharedPivots +=
            pivotVar_.size() * (groupMembers_.size() - 1);
        solveGroup(shots, groupMembers_.data(), groupMembers_.size(),
                   out);
    }
    out.stats.incrementalSorts = incrementalSorts_;
    out.stats.wideDualBases = wideDualBases_;

    // Lay the staged per-shot flip lists out in shot order.
    size_t total = 0;
    for (size_t i = 0; i < count; ++i)
        total += flipCount_[i];
    out.flips.resize(total);
    size_t offset = 0;
    for (size_t i = 0; i < count; ++i) {
        out.flipOffsets[i] = offset;
        std::copy(flipScratch_.begin() + i * flip_stride,
                  flipScratch_.begin() + i * flip_stride +
                      flipCount_[i],
                  out.flips.begin() + static_cast<std::ptrdiff_t>(offset));
        offset += flipCount_[i];
    }
    out.flipOffsets[count] = offset;
}

} // namespace cyclone
