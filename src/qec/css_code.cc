#include "qec/css_code.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "common/logging.h"

namespace cyclone {

CssCode::CssCode(SparseGF2 hx, SparseGF2 hz, std::string name,
                 size_t nominal_distance)
    : hx_(std::move(hx)), hz_(std::move(hz)), name_(std::move(name)),
      nominalDistance_(nominal_distance)
{
    CYCLONE_ASSERT(hx_.cols() == hz_.cols(),
                   "CSS matrices disagree on qubit count: " << hx_.cols()
                   << " vs " << hz_.cols());
    GF2Matrix dx = hx_.toDense();
    GF2Matrix dz = hz_.toDense();
    // CSS condition: every X stabilizer commutes with every Z stabilizer.
    GF2Matrix product = dx.multiply(dz.transposed());
    if (!product.isZero())
        CYCLONE_FATAL("CSS condition violated for code '" << name_ << "'");
    size_t rank_x = dx.rank();
    size_t rank_z = dz.rank();
    CYCLONE_ASSERT(hx_.cols() >= rank_x + rank_z,
                   "stabilizer ranks exceed qubit count");
    k_ = hx_.cols() - rank_x - rank_z;
}

namespace {

/**
 * Extract `expected` vectors from `candidates` that are linearly
 * independent of the row space of `base`.
 */
std::vector<BitVec>
independentOf(const GF2Matrix& base, const std::vector<BitVec>& candidates,
              size_t expected)
{
    GF2Matrix stack = base;
    size_t current_rank = stack.rank();
    std::vector<BitVec> picked;
    for (const BitVec& cand : candidates) {
        if (picked.size() == expected)
            break;
        GF2Matrix trial = stack;
        trial.appendRow(cand);
        size_t new_rank = trial.rank();
        if (new_rank > current_rank) {
            stack = std::move(trial);
            current_rank = new_rank;
            picked.push_back(cand);
        }
    }
    CYCLONE_ASSERT(picked.size() == expected,
                   "logical operator extraction found " << picked.size()
                   << " of " << expected);
    return picked;
}

} // namespace

void
CssCode::computeLogicals() const
{
    // Parallel campaign builds share one code object: derive its
    // logicals once, under a lock, so no caller reads them half-built.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    if (logicalsDone_)
        return;
    GF2Matrix dx = hx_.toDense();
    GF2Matrix dz = hz_.toDense();
    // Logical Z: in ker(Hx), independent of rowspace(Hz).
    logicalZ_ = independentOf(dz, dx.nullspaceBasis(), k_);
    // Logical X: in ker(Hz), independent of rowspace(Hx).
    logicalX_ = independentOf(dx, dz.nullspaceBasis(), k_);
    logicalsDone_ = true;
}

const std::vector<BitVec>&
CssCode::logicalZ() const
{
    computeLogicals();
    return logicalZ_;
}

const std::vector<BitVec>&
CssCode::logicalX() const
{
    computeLogicals();
    return logicalX_;
}

size_t
CssCode::distanceUpperBound(size_t iterations, Rng& rng) const
{
    computeLogicals();
    if (k_ == 0)
        return 0;
    // Start from the lightest raw representative.
    size_t best = numQubits();
    auto consider = [&](const BitVec& v) {
        size_t w = v.popcount();
        if (w > 0)
            best = std::min(best, w);
    };
    for (const BitVec& l : logicalZ_)
        consider(l);
    for (const BitVec& l : logicalX_)
        consider(l);

    // Random coset exploration: add random stabilizer combinations to a
    // random logical representative and track the lightest result.
    GF2Matrix dz = hz_.toDense();
    GF2Matrix dx = hx_.toDense();
    for (size_t it = 0; it < iterations; ++it) {
        bool z_side = rng.bernoulli(0.5);
        const auto& logicals = z_side ? logicalZ_ : logicalX_;
        const GF2Matrix& stabs = z_side ? dz : dx;
        BitVec v = logicals[rng.below(logicals.size())];
        // Greedy weight descent over random stabilizer additions.
        for (size_t pass = 0; pass < 2 * stabs.rows(); ++pass) {
            size_t r = rng.below(stabs.rows());
            BitVec trial = v ^ stabs.row(r);
            if (trial.popcount() < v.popcount())
                v = std::move(trial);
        }
        consider(v);
    }
    return best;
}

std::string
CssCode::parameterString() const
{
    std::ostringstream os;
    os << "[[" << numQubits() << "," << k_ << ",";
    if (nominalDistance_ > 0)
        os << nominalDistance_;
    else
        os << "?";
    os << "]]";
    return os.str();
}

} // namespace cyclone
