#include "qec/code_catalog.h"

#include <sstream>

#include "common/logging.h"
#include "qec/bb_code.h"
#include "qec/classical_code.h"
#include "qec/hgp_code.h"

namespace cyclone {
namespace catalog {

namespace {

/**
 * Find a classical seed deterministically, preferring the baked-in seed
 * (discovered once and pinned for speed) and falling back to a longer
 * search if the pinned seed ever stops matching.
 */
ClassicalCode
findSeed(size_t n, size_t k, size_t d, size_t col_weight,
         uint64_t pinned_seed)
{
    auto code = ClassicalCode::searchLdpc(n, k, d, col_weight,
                                          pinned_seed, 4000);
    if (!code) {
        // Fall back to scanning a range of seeds.
        for (uint64_t s = 1; s < 64 && !code; ++s)
            code = ClassicalCode::searchLdpc(n, k, d, col_weight, s, 4000);
    }
    if (!code) {
        CYCLONE_FATAL("no [" << n << "," << k << "," << d
                      << "] LDPC seed found");
    }
    return *code;
}

CssCode
renamed(CssCode code, const std::string& label)
{
    return CssCode(code.hx(), code.hz(), label, code.nominalDistance());
}

} // namespace

CssCode
hgp225()
{
    ClassicalCode seed = findSeed(12, 3, 6, 3, 1);
    return renamed(makeHgpCode(seed, 6), "HGP [[225,9,6]]");
}

CssCode
hgp400()
{
    ClassicalCode seed = findSeed(16, 4, 6, 3, 1);
    return renamed(makeHgpCode(seed, 6), "HGP [[400,16,6]]");
}

CssCode
hgp625()
{
    ClassicalCode seed = findSeed(20, 5, 8, 3, 1);
    return renamed(makeHgpCode(seed, 8), "HGP [[625,25,8]]");
}

CssCode
bb72()
{
    return makeBbCode(6, 6, {{3, 0}, {0, 1}, {0, 2}},
                      {{0, 3}, {1, 0}, {2, 0}}, 6, "BB [[72,12,6]]");
}

CssCode
bb90()
{
    return makeBbCode(15, 3, {{9, 0}, {0, 1}, {0, 2}},
                      {{0, 0}, {2, 0}, {7, 0}}, 10, "BB [[90,8,10]]");
}

CssCode
bb108()
{
    return makeBbCode(9, 6, {{3, 0}, {0, 1}, {0, 2}},
                      {{0, 3}, {1, 0}, {2, 0}}, 10, "BB [[108,8,10]]");
}

CssCode
bb144()
{
    return makeBbCode(12, 6, {{3, 0}, {0, 1}, {0, 2}},
                      {{0, 3}, {1, 0}, {2, 0}}, 12, "BB [[144,12,12]]");
}

CssCode
bb288()
{
    return makeBbCode(12, 12, {{3, 0}, {0, 2}, {0, 7}},
                      {{0, 3}, {1, 0}, {2, 0}}, 18, "BB [[288,12,18]]");
}

CssCode
surface(size_t distance)
{
    CYCLONE_ASSERT(distance >= 2, "surface code needs distance >= 2");
    std::ostringstream label;
    label << "Surface [[" << distance * distance +
        (distance - 1) * (distance - 1) << ",1," << distance << "]]";
    return renamed(
        makeHgpCode(ClassicalCode::repetition(distance), distance),
        label.str());
}

std::vector<CssCode>
allBbCodes()
{
    std::vector<CssCode> out;
    out.push_back(bb72());
    out.push_back(bb90());
    out.push_back(bb108());
    out.push_back(bb144());
    out.push_back(bb288());
    return out;
}

CssCode
byName(const std::string& name)
{
    if (name == "hgp225")
        return hgp225();
    if (name == "hgp400")
        return hgp400();
    if (name == "hgp625")
        return hgp625();
    if (name == "bb72")
        return bb72();
    if (name == "bb90")
        return bb90();
    if (name == "bb108")
        return bb108();
    if (name == "bb144")
        return bb144();
    if (name == "bb288")
        return bb288();
    CYCLONE_FATAL("unknown code name '" << name << "'");
}

std::vector<std::string>
names()
{
    return {"hgp225", "hgp400", "hgp625", "bb72", "bb90", "bb108",
            "bb144", "bb288"};
}

} // namespace catalog
} // namespace cyclone
