/**
 * @file
 * The hardware/software codesigns evaluated in the paper, as a
 * compiler-layer enumeration with name parsing. compileCodesign
 * (compiler/compiler.h) switches over this enum.
 */

#ifndef CYCLONE_COMPILER_ARCHITECTURE_H
#define CYCLONE_COMPILER_ARCHITECTURE_H

#include <array>
#include <optional>
#include <string_view>

namespace cyclone {

/** The hardware/software codesigns evaluated in the paper. */
enum class Architecture
{
    BaselineGrid,   ///< l x l grid + static EJF (the paper's baseline).
    AlternateGrid,  ///< Serpentine L-junction loop + static EJF.
    DynamicGrid,    ///< l x l grid + dynamic timeslices (Fig. 4a).
    RingEjf,        ///< Ring hardware + static EJF (Fig. 6, disastrous).
    MeshJunction,   ///< Junction mesh + conservative dynamic routing.
    Cyclone,        ///< Ring hardware + lockstep rotation (Section IV).
};

/** Every architecture, in enum order. */
constexpr std::array<Architecture, 6> kAllArchitectures = {
    Architecture::BaselineGrid, Architecture::AlternateGrid,
    Architecture::DynamicGrid,  Architecture::RingEjf,
    Architecture::MeshJunction, Architecture::Cyclone,
};

/** Human-readable architecture name. */
const char* architectureName(Architecture arch);

/**
 * Parse an architecture from its canonical name or a spec-file alias
 * ("baseline", "alternate", "dynamic", "ring", "mesh", "cyclone").
 * Returns nullopt for unknown names.
 */
std::optional<Architecture> parseArchitecture(std::string_view name);

} // namespace cyclone

#endif // CYCLONE_COMPILER_ARCHITECTURE_H
