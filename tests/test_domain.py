"""The scenario domain: every scenario inside it builds and runs every sweep,
and the library tour's calls, to finite values or a refusal, with no float
warning, and a value just outside a range is refused, naming its field."""

import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passgain.channel import array_gain_exact
from passgain.coupling import gain_mc, gain_mc_two_closed
from passgain.errors import ConfigError, NumericsError
from passgain.experiments import (run_fmc_curve, run_fub_curve, run_gain_vs_delta_mc,
                                  run_gain_vs_n, run_maxgain_vs_spacing)
from passgain.gain import gain_limit, gain_uniform, optimal_antenna_number, upper_bound_closed
from passgain.geometry import _DOMAIN, SystemConfig, symmetric_uniform_layout
from passgain.refine import build_refined_layout


def log_uniform(lo, hi):
    """Floats in [lo, hi], 0 < lo, uniform in their logarithm."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


def position(bound):
    """0, or a position of either sign up to ``bound`` m, log-uniform from 1 mm."""
    signs = st.sampled_from([1.0, -1.0])
    return st.just(0.0) | st.builds(math.copysign, log_uniform(1e-3, bound), signs)


SCENARIOS = st.fixed_dictionaries({
    "f_c_hz": log_uniform(*_DOMAIN["f_c_hz"]),
    "d_m": log_uniform(*_DOMAIN["d_m"]),
    "n_eff": log_uniform(*_DOMAIN["n_eff"]),
    "x_u_m": position(_DOMAIN["x_u_m"][1]),
    "x_0_m": st.none() | position(_DOMAIN["x_0_m"][1]),
    "alpha_wg_db_per_m": st.just(0.0) | log_uniform(1e-3, _DOMAIN["alpha_wg_db_per_m"][1]),
    "delta_p": log_uniform(*_DOMAIN["delta_p"]),
})


def rows(curves):
    """The x, y and stderr of every block a sweep returns."""
    return [v for p in curves for v in (p.x, p.y, p.stderr)]


# each runner on small arguments, as the values it returns, and the library
# tour's calls at N = 8 and the scenario's own spacing
RUNS = {
    "fub-curve": lambda c: rows(run_fub_curve(2.0, 0.5)),
    "fmc-curve": lambda c: rows(run_fmc_curve((c.n_eff,), 0.25)),
    "gain-vs-n": lambda c: rows(run_gain_vs_n(c, (c.delta_p,), "both", n_max=8, n_step=2)),
    # one draw: no standard error, so no warning about it
    "maxgain-vs-spacing": lambda c: rows(run_maxgain_vs_spacing(c, (c.delta_p,), "both",
                                                                trials=1, seed=0, n_max=8)),
    "gain-vs-delta-mc": lambda c: rows(run_gain_vs_delta_mc(c, (2, 4), step=0.25)),
    "gain_mc": lambda c: [gain_mc(4, c.delta_p * c.wavelength * np.array([1.0, 2.0]), c)],
    "array_gain_exact uniform": lambda c: [
        array_gain_exact(symmetric_uniform_layout(8, c.delta_p * c.wavelength), c)],
    "array_gain_exact refined": lambda c: [array_gain_exact(build_refined_layout(8, c), c)],
    "gain_uniform": lambda c: [gain_uniform(8, c)],
    "upper_bound_closed": lambda c: list(astuple(upper_bound_closed(8, c))),
    "optimal_antenna_number": lambda c: [optimal_antenna_number(c)],
    "gain_limit": lambda c: [gain_limit(c)],
    "gain_mc_two_closed": lambda c: [gain_mc_two_closed(c.delta_p * c.wavelength, c)],
}


def with_every_corner(test):
    """``test`` with each corner of the domain, both ends of every range, as
    an explicit example."""
    for ends in itertools.product(*_DOMAIN.values()):
        test = example(scenario=dict(zip(_DOMAIN, ends)))(test)
    return test


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@with_every_corner
@given(scenario=SCENARIOS)
def test_every_scenario_in_the_domain_runs_finite_or_refuses(scenario):
    cfg = SystemConfig(**scenario)
    assert np.finfo(float).tiny <= cfg.eta < math.inf
    for name, run in RUNS.items():
        try:
            values = run(cfg)
        except (ConfigError, NumericsError):
            continue
        assert all(np.isfinite(v).all() for v in values), name
    # the float just past either end of each range, and NaN
    for name, (lo, hi) in _DOMAIN.items():
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan):
            with pytest.raises(ConfigError, match=f"^invalid-config: {name} must lie in "):
                replace(cfg, **{name: value})
