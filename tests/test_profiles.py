"""Cutoff profiles: limits, oddness, and the model symbol zeta."""

import numpy as np
import pytest

from specdiff.profiles import (
    CutoffProfile,
    builtin_profile,
    zeta,
    zeta_eps,
)

BUILTIN_NAMES = ("ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP", "SHIFTED_ARCTAN")


def test_builtin_names_and_lookup():
    assert [builtin_profile(name).name for name in BUILTIN_NAMES] == list(BUILTIN_NAMES)
    assert builtin_profile("arctan_half").name == "ARCTAN_HALF"
    # the message lists the module's whole table, so BUILTIN_NAMES is all of it
    with pytest.raises(ValueError, match="known profiles: " + ", ".join(BUILTIN_NAMES) + "$"):
        builtin_profile("HEAVISIDE")


def test_limits_and_midpoint():
    for name in ("ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"):
        psi = builtin_profile(name)
        assert psi(-1e9) == pytest.approx(0.5, abs=1e-6)
        assert psi(1e9) == pytest.approx(-0.5, abs=1e-6)
        assert psi(0.0) == pytest.approx(0.0, abs=1e-15)


def test_sup_bound():
    x = np.linspace(-50, 50, 2001)
    for name in BUILTIN_NAMES:
        psi = builtin_profile(name)
        assert np.max(np.abs(psi(x))) <= 0.5 + 1e-12


def test_oddness_of_symmetric_builtins():
    x = np.linspace(-20, 20, 801)
    for name in ("ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"):
        psi = builtin_profile(name)
        assert np.max(np.abs(psi(x) + psi(-x))) < 1e-12


def test_shifted_arctan_is_not_odd():
    psi = builtin_profile("SHIFTED_ARCTAN")
    assert abs(psi(1.0) + psi(-1.0)) > 0.1


def test_arctan_half_is_half_zeta():
    x = np.linspace(-30, 30, 601)
    psi = builtin_profile("ARCTAN_HALF")
    assert np.max(np.abs(2.0 * psi(x) - zeta(x))) < 1e-15


def test_zeta_values():
    assert zeta(0.0) == pytest.approx(0.0, abs=1e-15)
    assert zeta(1.0) == pytest.approx(-0.5)
    assert zeta_eps(2.0, 2.0) == pytest.approx(zeta(1.0))
    with pytest.raises(ValueError):
        zeta_eps(1.0, 0.0)


class TestMollifiedStep:
    def test_exactly_flat_outside_radius(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        assert psi.flat_radius == 1.0
        for x in (1.0, 1.0 + 1e-12, 2.0, 1e6):
            assert psi(x) == -0.5
            assert psi(-x) == 0.5

    def test_scalar_in_scalar_out(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        assert isinstance(psi(0.3), float)

    def test_monotone_decreasing_inside(self):
        psi = builtin_profile("MOLLIFIED_STEP")
        # nonincreasing across the whole transition, strictly so away from
        # the edges where the bump has already decayed to machine zero
        x = np.linspace(-1, 1, 400)
        assert np.all(np.diff(psi(x)) <= 1e-15)
        inner = np.linspace(-0.9, 0.9, 200)
        assert np.all(np.diff(psi(inner)) < 0)

    def test_smooth_at_the_edge(self):
        # C-infinity gluing: one-sided difference quotients vanish at |x| = 1
        psi = builtin_profile("MOLLIFIED_STEP")
        h = 1e-4
        assert abs(psi(1.0) - psi(1.0 - h)) < 1e-8
        assert abs(psi(-1.0 + h) - psi(-1.0)) < 1e-8


def test_flat_radius_validation():
    fn = lambda x: np.zeros_like(x)
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="flat_radius"):
            CutoffProfile("bad", fn, flat_radius=radius)
    assert CutoffProfile("soft", fn).flat_radius is None
    assert [builtin_profile(name).flat_radius for name in BUILTIN_NAMES] == [
        None, None, 1.0, None]
