import numpy as np
import pytest

from finslerkit.structures import (
    by_name,
    conformal_quartic2,
    euclidean,
    minkowski_quartic,
    randers_sphere2,
    sphere2,
)

CATALOG_NAMES = [
    "euclidean2",
    "minkowski_quartic2",
    "sphere2",
    "randers_sphere2",
    "conformal_quartic2",
]

FLAT_NAMES = ["euclidean2", "minkowski_quartic2", "euclidean3", "minkowski_quartic3"]
CURVED_NAMES = ["sphere2", "randers_sphere2", "conformal_quartic2"]


@pytest.fixture(scope="session")
def structures():
    """Name -> structure map for everything the named lookup knows."""
    names = CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]
    return {name: by_name(name) for name in names}


@pytest.fixture(scope="session")
def sphere():
    return sphere2()


@pytest.fixture(scope="session")
def flat2():
    return euclidean(2)


def points_on(structure, count=5, seed=17):
    return structure.sample(count, seed)
