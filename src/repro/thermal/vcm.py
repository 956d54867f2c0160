"""Voice-coil motor power vs platter size.

Seeking a bigger platter needs a stronger (and farther-swinging) actuator.
The authors used a private correlation from Sri-Jayantha [44]; the paper
publishes three points we anchor to exactly — 3.9 W at 2.6 in, 2.28 W at
2.1 in, 0.618 W at 1.6 in — plus the ratios "roughly 2x for 95 mm vs 65 mm
and 4x vs 47 mm", which fix the behaviour at larger sizes.  We interpolate
log-linearly (piecewise power law) between anchors and clamp outside them.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from repro.errors import ThermalError

#: (platter diameter in inches, VCM power in watts).  The 1.6/2.1/2.6 points
#: are stated in the paper (§3.3 and §5.2); 3.3 and 3.7 extend the curve
#: using the Sri-Jayantha ratios relative to the 2.6-inch anchor.
VCM_POWER_ANCHORS: Sequence[Tuple[float, float]] = (
    (1.6, 0.618),
    (2.1, 2.28),
    (2.6, 3.9),
    (3.3, 6.2),
    (3.7, 7.8),
)


#: Memoized :func:`vcm_power_w` per diameter.
_VCM_POWER_CACHE: Dict[float, float] = {}


def vcm_power_w(diameter_in: float) -> float:
    """Seek-mode VCM power for a platter diameter, in watts.

    Piecewise log-log interpolation through :data:`VCM_POWER_ANCHORS`,
    clamped at the end points (the paper likewise declines to extrapolate
    below 1.6 inches for lack of correlations).  Memoized per diameter.
    """
    if diameter_in <= 0:
        raise ThermalError(f"diameter must be positive, got {diameter_in}")
    # Pure memo of a deterministic function of its argument: every
    # process computes bit-identical values for a key, so copies cannot
    # diverge observably.
    # thermolint: disable=TL012
    power = _VCM_POWER_CACHE.get(diameter_in)
    if power is None:
        power = _interpolate_vcm_power(diameter_in)
        # thermolint: disable=TL012
        _VCM_POWER_CACHE[diameter_in] = power
    return power


def _interpolate_vcm_power(diameter_in: float) -> float:
    anchors = VCM_POWER_ANCHORS
    if diameter_in <= anchors[0][0]:
        return anchors[0][1]
    if diameter_in >= anchors[-1][0]:
        return anchors[-1][1]
    for (d_lo, p_lo), (d_hi, p_hi) in zip(anchors, anchors[1:]):
        if d_lo <= diameter_in <= d_hi:
            frac = (math.log(diameter_in) - math.log(d_lo)) / (
                math.log(d_hi) - math.log(d_lo)
            )
            return math.exp(math.log(p_lo) + frac * (math.log(p_hi) - math.log(p_lo)))
    raise ThermalError(f"failed to interpolate VCM power for {diameter_in}")  # pragma: no cover
