"""Array-gain analysis for pinching-antenna systems on a dielectric waveguide.

Core surface: scenario/layout types, the scenario deriving its own wavelength,
wavenumbers and path-loss constant (:mod:`passgain.geometry`), exact array
gain (:mod:`passgain.channel`), closed-form gains and bounds
(:mod:`passgain.gain`), position refinement (:mod:`passgain.refine`),
mutual coupling (:mod:`passgain.coupling`), and figure-level experiments with
a CLI (:mod:`passgain.experiments`, :mod:`passgain.cli`).
"""

from .channel import array_gain_exact
from .errors import ConfigError, NumericsError
from .geometry import (
    SPEED_OF_LIGHT,
    AntennaLayout,
    SystemConfig,
    load_scenario,
    symmetric_uniform_layout,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaLayout",
    "ConfigError",
    "NumericsError",
    "SPEED_OF_LIGHT",
    "SystemConfig",
    "array_gain_exact",
    "load_scenario",
    "symmetric_uniform_layout",
    "__version__",
]
