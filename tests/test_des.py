import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cranplace
from cranplace.des import MD1, MM1, simulate_queue, simulate_tandem
from cranplace.errors import StabilityViolation
from cranplace.queueing import QueueLoad, md1_delay, mm1_delay

N = 200_000


class TestSingleQueue:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_md1_matches_closed_form(self, rho):
        load = QueueLoad(rho, 1.0)
        r = simulate_queue(MD1, load, N, seed=1)
        assert r.mean_sojourn == pytest.approx(md1_delay(load), rel=0.05)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    def test_mm1_matches_closed_form(self, rho):
        load = QueueLoad(rho, 1.0)
        r = simulate_queue(MM1, load, N, seed=1)
        assert r.mean_sojourn == pytest.approx(mm1_delay(load), rel=0.05)

    def test_littles_law(self):
        load = QueueLoad(0.5, 1.0)
        r = simulate_queue(MM1, load, N, seed=3)
        # L = lambda * W over the whole run (no warmup trim on L)
        assert r.time_avg_in_system == pytest.approx(
            load.arrival_rate * mm1_delay(load), rel=0.08)

    def test_seed_determinism(self):
        load = QueueLoad(0.5, 1.0)
        a = simulate_queue(MD1, load, 50_000, seed=9)
        b = simulate_queue(MD1, load, 50_000, seed=9)
        c = simulate_queue(MD1, load, 50_000, seed=10)
        assert a == b
        assert a.mean_sojourn != c.mean_sojourn

    def test_confidence_interval_brackets_truth(self):
        load = QueueLoad(0.5, 1.0)
        r = simulate_queue(MD1, load, N, seed=2)
        assert abs(r.mean_sojourn - md1_delay(load)) < 3 * r.ci95_halfwidth

    @pytest.mark.parametrize("discipline, rho, seed, expected", [
        (MD1, 0.5, 9, (1.50611746896442, 0.01880487621313241,
                       0.7498337543174521)),
        (MM1, 0.8, 1, (5.068112410980992, 0.3475842879033134,
                       4.011834888816384)),
    ])
    def test_pinned_results(self, discipline, rho, seed, expected):
        # bit for bit: any change to the arrival draw, the Lindley
        # recursion or the per-stage sojourn sum shows here
        r = simulate_queue(discipline, QueueLoad(rho, 1.0), 50_000,
                           seed=seed)
        assert (r.mean_sojourn, r.ci95_halfwidth,
                r.time_avg_in_system) == expected

    def test_validation(self):
        with pytest.raises(StabilityViolation):
            simulate_queue(MM1, QueueLoad(1.0, 1.0), 1000)
        with pytest.raises(ValueError):
            simulate_queue(MM1, QueueLoad(0.5, 1.0), 5)
        with pytest.raises(ValueError):
            simulate_queue("GG1", QueueLoad(0.5, 1.0), 1000)

    def test_least_run_forms_every_batch(self):
        # the 10% warm-up leaves 29 of 32 packets, 30 of 33
        load = QueueLoad(0.5, 1.0)
        with pytest.raises(ValueError):
            simulate_queue(MD1, load, 32)
        assert np.isfinite(simulate_queue(MD1, load, 33).ci95_halfwidth)

    def test_result_fields_are_floats(self):
        r = simulate_queue(MM1, QueueLoad(0.5, 1.0), 1000, seed=1)
        assert [type(v) for v in (r.mean_sojourn, r.ci95_halfwidth,
                                  r.time_avg_in_system)] == [float] * 3


class TestTandem:
    def test_single_stage_equals_queue(self):
        load = QueueLoad(0.5, 1.0)
        t = simulate_tandem([load], MD1, 50_000, seed=4)
        q = simulate_queue(MD1, load, 50_000, seed=4)
        assert t.mean_sojourn == pytest.approx(q.mean_sojourn)

    def test_two_stages_cost_more_than_one(self):
        load = QueueLoad(0.5, 1.0)
        one = simulate_tandem([load], MD1, 50_000, seed=5)
        two = simulate_tandem([load, QueueLoad(0.5, 2.0)], MD1, 50_000,
                              seed=5)
        assert two.mean_sojourn > one.mean_sojourn

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_md1_stages_take_at_least_their_services(self, k):
        # every packet is served once per stage, for 1/mu each
        mu = 2.0
        r = simulate_tandem([QueueLoad(1.0, mu)] * k, MD1, 50_000, seed=7)
        assert r.mean_sojourn >= k / mu

    def test_littles_law_on_two_stages(self):
        loads = [QueueLoad(0.5, 1.0), QueueLoad(0.5, 0.8)]
        r = simulate_tandem(loads, MM1, N, seed=8)
        assert r.time_avg_in_system == pytest.approx(
            loads[0].arrival_rate * r.mean_sojourn, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_tandem([], MD1, 1000)
        with pytest.raises(StabilityViolation):
            simulate_tandem([QueueLoad(2.0, 1.0)], MD1, 1000)
        with pytest.raises(ValueError):
            simulate_tandem([QueueLoad(0.5, 1.0)], MD1, 5)


class TestNumericalHygiene:
    def test_sojourns_positive(self):
        r = simulate_queue(MD1, QueueLoad(0.9, 1.0), 50_000, seed=6)
        assert r.mean_sojourn >= 1.0  # at least one service time
        assert np.isfinite(r.ci95_halfwidth)


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is only the simulator's; every other command starts without it
    src = str(Path(cranplace.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cranplace.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"
