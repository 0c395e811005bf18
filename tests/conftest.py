import pytest

from spinetorsion.census import census_branched


@pytest.fixture(scope="session")
def census1():
    return census_branched(1)


@pytest.fixture(scope="session")
def census2():
    return census_branched(2)


@pytest.fixture(scope="session")
def corpus12(census1, census2):
    return census1 + census2


@pytest.fixture(scope="session")
def census3():
    return census_branched(3)


@pytest.fixture(scope="session")
def corpus3(corpus12, census3):
    """Full corpus: census up to 3 tetrahedra (used by the acceptance suite)."""
    return corpus12 + census3
