/**
 * @file
 * The named QEC codes evaluated in the paper.
 *
 * HGP codes are built from classical LDPC seeds found by deterministic
 * seeded search (see ClassicalCode::searchLdpc); BB codes use the
 * published polynomial pairs of Bravyi et al. All constructors are
 * deterministic, and tests verify [[n, k]] by rank computation.
 */

#ifndef CYCLONE_QEC_CODE_CATALOG_H
#define CYCLONE_QEC_CODE_CATALOG_H

#include <string>
#include <vector>

#include "qec/css_code.h"

namespace cyclone {
namespace catalog {

/** HGP [[225,9,6]] from a [12,3,6] column-weight-3 LDPC seed. */
CssCode hgp225();

/** HGP [[400,16,6]] from a [16,4,6] seed. */
CssCode hgp400();

/** HGP [[625,25,8]] from a [20,5,8] seed. */
CssCode hgp625();

/** BB [[72,12,6]]: l=6, m=6, A=x^3+y+y^2, B=y^3+x+x^2. */
CssCode bb72();

/** BB [[90,8,10]]: l=15, m=3, A=x^9+y+y^2, B=1+x^2+x^7. */
CssCode bb90();

/** BB [[108,8,10]]: l=9, m=6, A=x^3+y+y^2, B=y^3+x+x^2. */
CssCode bb108();

/** BB [[144,12,12]]: l=12, m=6, A=x^3+y+y^2, B=y^3+x+x^2. */
CssCode bb144();

/** BB [[288,12,18]]: l=12, m=12, A=x^3+y^2+y^7, B=y^3+x+x^2. */
CssCode bb288();

/**
 * Distance-d surface code [[d^2 + (d-1)^2, 1, d]] (the hypergraph
 * product of two repetition codes). Not part of the paper's
 * evaluation set — its local stabilizers are the contrast case for
 * which grid QCCDs are "already fast and sufficient" (Section II-A4).
 */
CssCode surface(size_t distance);

/** The BB codes of the paper, smallest first. */
std::vector<CssCode> allBbCodes();

/**
 * Look a code up by short name: "hgp225", "hgp400", "hgp625", "bb72",
 * "bb90", "bb108", "bb144", "bb288". Throws on unknown names.
 */
CssCode byName(const std::string& name);

/** All short names accepted by byName(). */
std::vector<std::string> names();

} // namespace catalog
} // namespace cyclone

#endif // CYCLONE_QEC_CODE_CATALOG_H
