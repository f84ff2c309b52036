import pytest
from hypothesis import Phase, settings

from zfock import Indicatrix, RapidityGrid, ScatteringModel

# Every property runs without the shrink phase: a failing example still
# fails the run, at once, instead of being minimized for minutes.
settings.register_profile("no_shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no_shrink")

GRID3 = RapidityGrid((-0.8, 0.1, 0.9), 1.0)
GRID4 = RapidityGrid((-1.1, -0.3, 0.4, 1.2), 1.0)


@pytest.fixture
def grid3():
    return GRID3


@pytest.fixture
def grid4():
    return GRID4


@pytest.fixture(params=["free", "ising", "sinh_exp"])
def model(request):
    if request.param == "free":
        return ScatteringModel.free()
    if request.param == "ising":
        return ScatteringModel.ising()
    return ScatteringModel.sinh_exp(0.7)


@pytest.fixture(params=["zero", "sqrt", "log"])
def omega(request):
    if request.param == "zero":
        return Indicatrix.zero()
    if request.param == "sqrt":
        return Indicatrix.sqrt(0.4)
    return Indicatrix.log(0.8)
