import importlib
import pathlib

import pytest

from skewprod import FuzzConfig, SkewGerm, parse_poly

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# The acceptance campaign's configuration (test_criterion_5).
CRITERION_5 = FuzzConfig(seed=20260809, germ_count=240, delta_max=3,
                         support_max=6, coeff_min=-3, coeff_max=3, n_max=3,
                         boundary_bias_pct=25)


def germ(p_src: str, q_src: str) -> SkewGerm:
    return SkewGerm(parse_poly(p_src, allowed_vars=("z",)), parse_poly(q_src))


# The five canonical fixtures plus cases with integral blow-up weights
# (g6: first stage, g7: both stages) and a boundary germ whose delta
# equals an interior intercept (g8: two simultaneous Case-4 readings).
FIXTURES = {
    "g1": ("z^2", "z*w"),
    "g2": ("z^2", "z^3*w + z*w^2"),
    "g3": ("z^3", "w^2 + z*w"),
    "g4": ("z^2", "w^3 + z*w + z^3"),
    "g5": ("z^2", "-2*w^2 + z*w + z^2"),
    "g6": ("z^2", "w^4 + z*w^2 + z^3*w + z^7"),
    "g7": ("z^7", "z^8*w^4 + z^12*w^2 + z^17"),
    "g8": ("z^5", "w^8 + z*w^4 + z^3*w^2 + z^9*w"),
}


@pytest.fixture(scope="session")
def germs():
    return {name: germ(p, q) for name, (p, q) in FIXTURES.items()}


@pytest.fixture
def step_log(monkeypatch):
    """One entry per compose_germ call, that is, per full step: the
    iterate it composed with."""
    log = []
    germ_module = importlib.import_module("skewprod.germ")
    inner = germ_module.compose_germ

    def logged(g, h, limits=None):
        log.append(h)
        return inner(g, h, limits)

    monkeypatch.setattr(germ_module, "compose_germ", logged)
    return log
