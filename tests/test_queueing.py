import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cranplace.errors import StabilityViolation
from cranplace.model import Link
from cranplace.queueing import (QueueLoad, md1, md1_delay, mm1, mm1_delay,
                                path_delay)


class TestQueueLoad:
    def test_utilization(self):
        assert QueueLoad(3.0, 4.0).utilization == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueLoad(1.0, 0.0)
        with pytest.raises(ValueError):
            QueueLoad(-1.0, 1.0)
        with pytest.raises(ValueError):
            QueueLoad(1.0, math.nan)
        with pytest.raises(ValueError):
            QueueLoad(math.nan, 1.0)

    def test_infinite_rates_are_rejected(self):
        # the kernels validate as QueueLoad does (TestKernels)
        for make in (QueueLoad, md1, mm1):
            with pytest.raises(ValueError, match="service_rate"):
                make(1.0, math.inf)
            with pytest.raises(ValueError, match="arrival_rate"):
                make(math.inf, 1.0)


class TestClosedForms:
    def test_mm1_known_values(self):
        # 1/(mu - lambda): idle queue gives 1/mu, rho=0.5 doubles it
        assert mm1_delay(QueueLoad(0.0, 2.0)) == 0.5
        assert mm1_delay(QueueLoad(1.0, 2.0)) == 1.0
        assert mm1_delay(QueueLoad(0.8, 1.0)) == pytest.approx(5.0)

    def test_md1_known_values(self):
        # (2 - rho) / (2 mu (1 - rho)): idle gives 1/mu
        assert md1_delay(QueueLoad(0.0, 2.0)) == 0.5
        assert md1_delay(QueueLoad(0.5, 1.0)) == pytest.approx(1.5)
        assert md1_delay(QueueLoad(0.8, 1.0)) == pytest.approx(3.0)

    def test_md1_below_mm1_under_load(self):
        load = QueueLoad(0.7, 1.0)
        assert md1_delay(load) < mm1_delay(load)

    def test_instability_raises(self):
        with pytest.raises(StabilityViolation):
            mm1_delay(QueueLoad(1.0, 1.0))
        with pytest.raises(StabilityViolation):
            md1_delay(QueueLoad(2.0, 1.0))


def _md1_reference(load):
    """The M/D/1 closed form written on a QueueLoad, as the reference the
    kernel must match bit for bit."""
    rho = load.utilization
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/D/1 unstable: arrival {load.arrival_rate} >= service "
            f"{load.service_rate}")
    return (2.0 - rho) / (2.0 * load.service_rate * (1.0 - rho))


def _mm1_reference(load):
    """The M/M/1 closed form written on a QueueLoad."""
    rho = load.utilization
    if rho >= 1.0:
        raise StabilityViolation(
            f"M/M/1 unstable: arrival {load.arrival_rate} >= service "
            f"{load.service_rate}")
    return 1.0 / (load.service_rate * (1.0 - rho))


def _outcome(fn, *args):
    """repr of the result (bit-exact, NaN included) or the error raised."""
    try:
        return repr(fn(*args))
    except (ValueError, StabilityViolation) as err:
        return type(err), str(err)


class TestKernels:
    @given(mu=st.one_of(st.floats(1e-6, 1e12), st.floats()),
           load=st.one_of(st.floats(0.0, 1.1), st.floats()),
           scaled=st.booleans())
    def test_kernels_equal_the_queue_load_forms(self, mu, load, scaled):
        # scaled draws put rho near 1, where the stability raise sits
        lam = load * mu if scaled else load
        for kernel, wrapped, reference in (
                (md1, md1_delay, _md1_reference),
                (mm1, mm1_delay, _mm1_reference)):
            want = _outcome(lambda a, b: reference(QueueLoad(a, b)), lam, mu)
            assert _outcome(kernel, lam, mu) == want
            assert _outcome(lambda a, b: wrapped(QueueLoad(a, b)),
                            lam, mu) == want

    def test_kernels_validate_like_queue_load(self):
        for kernel in (md1, mm1):
            with pytest.raises(ValueError):
                kernel(1.0, 0.0)
            with pytest.raises(ValueError):
                kernel(-1.0, 1.0)
            with pytest.raises(ValueError):
                kernel(1.0, math.nan)
            with pytest.raises(ValueError):
                kernel(math.nan, 1.0)
            with pytest.raises(StabilityViolation):
                kernel(1.0, 1.0)


class TestPathDelay:
    def _links(self):
        return [Link("a", "b", 10.0, 1.0),
                Link("b", "c", 20.0, 1.0)]

    def test_sums_md1_terms(self):
        links = self._links()
        loads = {("a", "b"): 5.0, ("b", "c"): 0.0}
        want = md1_delay(QueueLoad(5.0, 10.0)) + md1_delay(QueueLoad(0.0,
                                                                     20.0))
        assert path_delay(links, loads) == pytest.approx(want)

    def test_missing_load_means_idle(self):
        links = self._links()
        want = md1_delay(QueueLoad(0.0, 10.0)) + md1_delay(QueueLoad(0.0,
                                                                     20.0))
        assert path_delay(links, {}) == pytest.approx(want)

    def test_saturated_link_raises_with_location(self):
        links = self._links()
        with pytest.raises(StabilityViolation) as err:
            path_delay(links, {("a", "b"): 10.0})
        assert err.value.where == ("a", "b")

