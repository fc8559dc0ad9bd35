#include "dem/dem.h"

namespace cyclone {

double
DetectorErrorModel::expectedErrorsPerShot() const
{
    double total = 0.0;
    for (const DemMechanism& m : mechanisms)
        total += m.probability;
    return total;
}

} // namespace cyclone
