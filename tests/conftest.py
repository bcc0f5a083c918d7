from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from approxcommute import ExampleParams, build_example
from approxcommute import corpus


@pytest.fixture(scope="session")
def s3():
    return corpus.symmetric(3)


@pytest.fixture(scope="session")
def d4():
    return corpus.dihedral(4)


@pytest.fixture(scope="session")
def q8():
    return corpus.quaternion(8)


@pytest.fixture(scope="session")
def c12():
    return corpus.cyclic(12)


@pytest.fixture(scope="session")
def family_311():
    return build_example(ExampleParams(3, 1, 1))


@pytest.fixture(scope="session")
def family_421():
    return build_example(ExampleParams(4, 2, 1))


@pytest.fixture(scope="session")
def family_522():
    return build_example(ExampleParams(5, 2, 2))


@pytest.fixture(scope="session")
def default_corpus():
    return corpus.default_corpus()


@pytest.fixture(params=["D4", "S4", "Q16", "family:5,2,2"])
def kernel_group(request):
    """Groups for the set-kernel oracle tests; family (5,2,2) has order 320."""
    if request.param.startswith("family:"):
        return request.getfixturevalue("family_522").group
    return corpus.named(request.param)
