"""The stacked PointFrame tower against its component-by-component
reference in tower_oracle: every rung must agree exactly."""

import numpy as np
import pytest

from finslerkit.frame import PointFrame
from finslerkit.structures import by_name

from conftest import CATALOG_NAMES
from tower_oracle import ScalarTower, stack

ALL_NAMES = CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_rungs_equal_scalar_reference(name):
    s = by_name(name)
    for p in s.sample(20, seed=0):
        fr = PointFrame(s, p)
        ref = ScalarTower(s, p)
        jets = {
            "g_jets": ref.g_jets,
            "ginv_jets": ref.ginv_jets,
            "G_jets": ref.G_jets,
            "N_jets": ref.N_jets,
            "_dg_jets": ref.dg_jets,
            "F_jets": ref.F_jets,
        }
        for rung, expect in jets.items():
            assert np.array_equal(getattr(fr, rung).coeffs, stack(expect)), (rung, p)
        assert np.array_equal(fr.Rhat, ref.Rhat), p
        assert np.array_equal(fr.hcurv, ref.hcurv), p
        assert fr.scalar == ref.scalar, p
