// A mechanism's probability must have the same bits on every host: no
// multiply-add contraction in this TU. The merge fold below would fuse
// on arm64 (where FMA is baseline) but not on baseline x86-64.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "dem/dem_builder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace cyclone {

namespace {

/** A sorted run of detector indices plus an observable mask: the
 *  signature of an injection, a channel component or a mechanism. */
struct SigView
{
    const uint32_t* dets = nullptr;
    size_t size = 0;
    uint64_t observables = 0;
};

/** Sorted symmetric difference of `a` and `b`, written to `out`. */
SigView
xorInto(const SigView& a, const SigView& b, std::vector<uint32_t>& out)
{
    out.clear();
    size_t i = 0, j = 0;
    while (i < a.size && j < b.size) {
        if (a.dets[i] < b.dets[j]) {
            out.push_back(a.dets[i++]);
        } else if (b.dets[j] < a.dets[i]) {
            out.push_back(b.dets[j++]);
        } else {
            ++i;
            ++j;
        }
    }
    out.insert(out.end(), a.dets + i, a.dets + a.size);
    out.insert(out.end(), b.dets + j, b.dets + b.size);
    return {out.data(), out.size(), a.observables ^ b.observables};
}

/** Number of elementary injections (X or Z flips on one qubit) an
 *  error op contributes. */
size_t
injectionCount(const Op& op)
{
    switch (op.kind) {
      case OpKind::XError:
      case OpKind::ZError:
        return 1;
      case OpKind::Depolarize1:
      case OpKind::Pauli1:
        return 2;
      case OpKind::Depolarize2:
        return 4;
      default:
        return 0;
    }
}

/**
 * The mechanisms built so far, with an open-addressed index from
 * signatures to mechanism ids so that identical signatures merge.
 * Mechanisms keep the order in which their signature first appeared.
 */
class MechanismTable
{
  public:
    explicit MechanismTable(DetectorErrorModel& dem) : dem_(dem) {}

    /** Add one channel component; p <= 0 and empty signatures are
     *  skipped. */
    void
    add(const SigView& sig, double p)
    {
        if (p <= 0.0 || (sig.size == 0 && sig.observables == 0))
            return;
        const uint64_t h = hash(sig);
        if (2 * (hashes_.size() + 1) > slots_.size())
            grow();
        const size_t mask = slots_.size() - 1;
        for (size_t s = h & mask;; s = (s + 1) & mask) {
            const uint32_t id = slots_[s];
            if (id == kEmpty) {
                slots_[s] = static_cast<uint32_t>(hashes_.size());
                hashes_.push_back(h);
                DemMechanism& m = dem_.mechanisms.emplace_back();
                m.probability = p;
                m.detectors.assign(sig.dets, sig.dets + sig.size);
                m.observables = sig.observables;
                return;
            }
            DemMechanism& m = dem_.mechanisms[id];
            if (hashes_[id] == h && m.observables == sig.observables &&
                std::equal(m.detectors.begin(), m.detectors.end(),
                           sig.dets, sig.dets + sig.size)) {
                // Independent-OR combination of the two events.
                m.probability = m.probability * (1.0 - p) +
                    p * (1.0 - m.probability);
                return;
            }
        }
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    static uint64_t
    hash(const SigView& sig)
    {
        uint64_t h = 0xcbf29ce484222325ull ^ sig.observables;
        for (size_t i = 0; i < sig.size; ++i)
            h = (h ^ sig.dets[i]) * 0x100000001b3ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        return h ^ (h >> 31);
    }

    void
    grow()
    {
        slots_.assign(std::max<size_t>(1024, 2 * slots_.size()), kEmpty);
        const size_t mask = slots_.size() - 1;
        for (size_t id = 0; id < hashes_.size(); ++id) {
            size_t s = hashes_[id] & mask;
            while (slots_[s] != kEmpty)
                s = (s + 1) & mask;
            slots_[s] = static_cast<uint32_t>(id);
        }
    }

    DetectorErrorModel& dem_;
    /** Signature hash of each mechanism, by id. */
    std::vector<uint64_t> hashes_;
    /** Power-of-two table of mechanism ids, at most half full. */
    std::vector<uint32_t> slots_;
};

/** Where an injection's detectors sit in the arena, and its
 *  observables. */
struct InjectionSig
{
    size_t begin = 0;
    size_t size = 0;
    uint64_t observables = 0;
};

} // namespace

DetectorErrorModel
buildDetectorErrorModel(const Circuit& circuit)
{
    const std::vector<Op>& ops = circuit.ops();

    // ---- What each measurement record toggles. A detector that
    // references a record twice lists it twice, and the two toggles
    // cancel. ----
    const size_t num_meas = circuit.numMeasurements();
    std::vector<std::vector<uint32_t>> meas_dets(num_meas);
    std::vector<uint64_t> meas_obs(num_meas, 0);
    {
        uint32_t det_index = 0;
        for (const Op& op : ops) {
            if (op.kind == OpKind::Detector) {
                for (uint32_t m : op.targets)
                    meas_dets[m].push_back(det_index);
                ++det_index;
            } else if (op.kind == OpKind::Observable) {
                const auto id = static_cast<uint64_t>(op.params[0]);
                for (uint32_t m : op.targets)
                    meas_obs[m] ^= uint64_t(1) << id;
            }
        }
    }

    size_t num_injections = 0;
    for (const Op& op : ops)
        num_injections += injectionCount(op);

    // ---- One backward sweep. Per qubit, an X row and a Z row hold the
    // detectors (bit set) and observables (last word) that an X or a Z
    // flip at the current point would toggle. ----
    const size_t words = (circuit.numDetectors() + 63) / 64;
    const size_t stride = words + 1;
    std::vector<uint64_t> sensitivity(2 * circuit.numQubits() * stride, 0);
    auto row = [&](uint32_t q, bool z_flip) {
        return sensitivity.data() + (2 * size_t{q} + z_flip) * stride;
    };

    std::vector<InjectionSig> injections(num_injections);
    std::vector<uint32_t> arena;
    size_t next_injection = num_injections;
    size_t meas_index = num_meas;
    for (size_t i = ops.size(); i-- > 0;) {
        const Op& op = ops[i];
        switch (op.kind) {
          case OpKind::ResetZ:
          case OpKind::ResetX:
            for (uint32_t q : op.targets) {
                std::fill_n(row(q, false), stride, 0);
                std::fill_n(row(q, true), stride, 0);
            }
            break;
          case OpKind::Cx: {
            const uint32_t c = op.targets[0];
            const uint32_t t = op.targets[1];
            uint64_t* xc = row(c, false);
            const uint64_t* xt = row(t, false);
            uint64_t* zt = row(t, true);
            const uint64_t* zc = row(c, true);
            for (size_t w = 0; w < stride; ++w) {
                xc[w] ^= xt[w];
                zt[w] ^= zc[w];
            }
            break;
          }
          case OpKind::MeasureZ:
          case OpKind::MeasureX: {
            --meas_index;
            uint64_t* r = row(op.targets[0], op.kind == OpKind::MeasureX);
            for (uint32_t d : meas_dets[meas_index])
                r[d >> 6] ^= uint64_t(1) << (d & 63);
            r[words] ^= meas_obs[meas_index];
            break;
          }
          default: {
            // Injection k of an op flips X (even k) or Z (odd k) on
            // targets[k / 2]; a single flip's kind names its part.
            const size_t count = injectionCount(op);
            next_injection -= count;
            for (size_t k = 0; k < count; ++k) {
                const bool z_flip = count == 1
                    ? op.kind == OpKind::ZError : (k & 1) != 0;
                const uint64_t* r = row(op.targets[k / 2], z_flip);
                InjectionSig& sig = injections[next_injection + k];
                sig.begin = arena.size();
                for (size_t w = 0; w < words; ++w) {
                    for (uint64_t bits = r[w]; bits != 0;
                         bits &= bits - 1) {
                        arena.push_back(static_cast<uint32_t>(
                            64 * w + std::countr_zero(bits)));
                    }
                }
                sig.size = arena.size() - sig.begin;
                sig.observables = r[words];
            }
            break;
          }
        }
    }

    // ---- Synthesize mechanisms in forward op order and merge
    // identical signatures. ----
    DetectorErrorModel dem;
    dem.numDetectors = circuit.numDetectors();
    dem.numObservables = circuit.numObservables();
    MechanismTable table(dem);

    size_t first = 0;
    auto injection = [&](size_t k) {
        const InjectionSig& sig = injections[first + k];
        return SigView{arena.data() + sig.begin, sig.size,
                       sig.observables};
    };
    std::vector<uint32_t> y_buf;
    // Depolarize2 combos: bits Xa, Za, Xb, Zb of the index.
    std::array<SigView, 16> combo;
    std::array<std::vector<uint32_t>, 16> combo_buf;
    for (const Op& op : ops) {
        switch (op.kind) {
          case OpKind::XError:
          case OpKind::ZError:
            table.add(injection(0), op.params[0]);
            break;
          case OpKind::Depolarize1: {
            const double p = op.params[0] / 3.0;
            table.add(injection(0), p);                          // X
            table.add(injection(1), p);                          // Z
            table.add(xorInto(injection(0), injection(1), y_buf),
                      p);                                        // Y
            break;
          }
          case OpKind::Pauli1:
            table.add(injection(0), op.params[0]);               // X
            table.add(xorInto(injection(0), injection(1), y_buf),
                      op.params[1]);                             // Y
            table.add(injection(1), op.params[2]);               // Z
            break;
          case OpKind::Depolarize2: {
            const double p = op.params[0] / 15.0;
            for (unsigned c = 1; c < 16; ++c) {
                // The combo without its lowest bit, XOR that bit.
                const unsigned rest = c & (c - 1);
                const SigView low = injection(
                    static_cast<size_t>(std::countr_zero(c)));
                combo[c] = rest == 0
                    ? low : xorInto(combo[rest], low, combo_buf[c]);
                table.add(combo[c], p);
            }
            break;
          }
          default:
            break;
        }
        first += injectionCount(op);
    }
    return dem;
}

} // namespace cyclone
