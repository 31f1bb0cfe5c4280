"""Array-gain analysis for pinching-antenna systems on a dielectric waveguide.

A layout is the 1-D array of its antennas' offsets from the user's projection.
The scenario and the uniform layout live in :mod:`passgain.geometry`, the
exact gain of any layout in :mod:`passgain.channel`, closed forms and bounds
in :mod:`passgain.gain`, the refined layout in :mod:`passgain.refine`,
coupling in :mod:`passgain.coupling`, and the sweeps and CLI in
:mod:`passgain.experiments` and :mod:`passgain.cli`.
Each module's docstring lists its public names on one ``Public:`` line.
"""

from .channel import array_gain_exact
from .errors import ConfigError, NumericsError
from .geometry import (
    SPEED_OF_LIGHT,
    SystemConfig,
    load_scenario,
    symmetric_uniform_layout,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericsError",
    "SPEED_OF_LIGHT",
    "SystemConfig",
    "array_gain_exact",
    "load_scenario",
    "symmetric_uniform_layout",
    "__version__",
]
