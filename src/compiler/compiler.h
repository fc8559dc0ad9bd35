/**
 * @file
 * Compile one syndrome round under a codesign.
 *
 * CodesignConfig picks the architecture and its tuning; compileCodesign
 * builds the matching topology for the code, runs that architecture's
 * compiler and returns a CompileResult whose summary derives from the
 * TimedSchedule IR the compiler emitted. Dispatch is one switch over
 * Architecture: a new architecture adds one case, and -Wswitch flags
 * an enumerator without one.
 */

#ifndef CYCLONE_COMPILER_COMPILER_H
#define CYCLONE_COMPILER_COMPILER_H

#include <cstddef>

#include "compiler/architecture.h"
#include "compiler/baseline_ejf.h"
#include "compiler/compile_result.h"
#include "compiler/cyclone_compiler.h"
#include "qec/css_code.h"
#include "qec/schedule.h"

namespace cyclone {

/** Codesign selection and tuning. */
struct CodesignConfig
{
    Architecture architecture = Architecture::Cyclone;

    /** Options for the grid-family compilers. */
    EjfOptions ejf;

    /** Options for the Cyclone compiler. */
    CycloneOptions cyclone;

    /** Trap capacity of grid devices (the paper uses 5). */
    size_t gridCapacity = 5;
};

/**
 * Compile one syndrome round of `code` under the chosen codesign,
 * building the matching topology internally. The Cyclone compiler
 * derives its rotation from the code and does not read `schedule`.
 */
CompileResult compileCodesign(const CssCode& code,
                              const SyndromeSchedule& schedule,
                              const CodesignConfig& config);

} // namespace cyclone

#endif // CYCLONE_COMPILER_COMPILER_H
