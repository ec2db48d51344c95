"""`sweep_to_halt` against the march, bisect and replay sweep of
`sweep_oracle`: bit-equal trajectories, a march on the exact driving grid,
and the clash and range-end branches of the halt search."""
import numpy as np
import pytest

import sweep_oracle as oracle
from curvefold import foldsim
from curvefold.errors import NoHalt, OutOfRange
from curvefold.foldio import export_fold, import_fold
from curvefold.foldsim import MARCH_STEPS, sweep_to_halt

FIGS = ("fig5", "fig7")
EVENT_AT = 0.6  # driving value (rad) past which the branch tests fake an event


def assert_same(got, want):
    assert np.array_equal(got.driving_values, want.driving_values)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.driving_rho == b.driving_rho
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.vertex_coords, b.vertex_coords)
        assert a.residuals == b.residuals
    assert got.halt.halted and want.halt.halted
    assert got.halt.halt_reason == want.halt.halt_reason
    assert got.halt.residuals["halting_creases"] == want.halt.residuals["halting_creases"]


def _record(monkeypatch):
    """|driving| of every propagate call, in call order."""
    seen = []
    real = foldsim.propagate

    def recorded(pattern, driving_rho, *args, **kwargs):
        seen.append(abs(driving_rho))
        return real(pattern, driving_rho, *args, **kwargs)

    monkeypatch.setattr(foldsim, "propagate", recorded)
    return seen


def _march_len(seen):
    """Leading propagations on the grid pi * j / MARCH_STEPS, j = 0, 1, ..."""
    n = 0
    while n < len(seen) and seen[n] == np.pi * n / MARCH_STEPS:
        n += 1
    return n


class TestOracle:
    @pytest.mark.parametrize("samples", (2, 4, 8, 64))
    @pytest.mark.parametrize("fig", FIGS)
    def test_bit_equal(self, fig, samples, request):
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        assert_same(sweep_to_halt(pattern, samples=samples),
                    oracle.sweep_to_halt(pattern, samples=samples))

    @pytest.mark.parametrize("fig", FIGS)
    def test_bit_equal_reimported(self, fig, request):
        pattern, _ = import_fold(export_fold(request.getfixturevalue(f"{fig}_design")[0]))
        assert_same(sweep_to_halt(pattern, samples=64),
                    oracle.sweep_to_halt(pattern, samples=64))


class TestMarch:
    @pytest.mark.parametrize("fig", FIGS)
    def test_two_propagations_per_coarse_step(self, fig, request, monkeypatch):
        # the march propagates exactly the grid pi * j / 128 up to the halt
        # bracket, two states per coarse step of pi / 64; a step count
        # taken from a float difference would add a third on some steps
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        seen = _record(monkeypatch)
        d_halt = sweep_to_halt(pattern, samples=2).driving_values[-1]
        n = _march_len(seen)
        assert seen[n - 1] >= d_halt > seen[n - 3]
        assert all(d < seen[n - 1] for d in seen[n:])


class TestBranches:
    def test_clash_halt(self, fig7_design, monkeypatch):
        pattern, _ = fig7_design
        real = foldsim.clash_test
        monkeypatch.setattr(foldsim, "clash_test", lambda p, st: (
            [(0, 1)] if abs(st.driving_rho) > EVENT_AT else real(p, st)))
        seen = _record(monkeypatch)
        stats = {}
        want = oracle.sweep_to_halt(pattern, samples=2, stats=stats)
        seen.clear()
        got = sweep_to_halt(pattern, samples=2)
        assert got.halt.halt_reason == "panel-interpenetration"
        assert got.driving_values[-1] == np.nextafter(EVENT_AT, np.inf)
        assert_same(got, want)
        # with two samples the states at 0 and d_halt are the kept ones, so
        # every propagation after the march is a step of the halt search
        assert len(seen) - _march_len(seen) <= 2 * stats["bisections"]

    def test_range_end_without_event(self, fig7_design, monkeypatch):
        pattern, _ = fig7_design
        real = foldsim.propagate

        def limited(pattern, driving_rho, *args, **kwargs):
            if abs(driving_rho) > EVENT_AT:
                raise OutOfRange("beyond the folding range of this test")
            return real(pattern, driving_rho, *args, **kwargs)

        monkeypatch.setattr(foldsim, "propagate", limited)
        seen = _record(monkeypatch)
        stats = {}
        with pytest.raises(NoHalt, match="folding range ends"):
            oracle.sweep_to_halt(pattern, samples=2, stats=stats)
        seen.clear()
        with pytest.raises(NoHalt, match="folding range ends"):
            sweep_to_halt(pattern, samples=2)
        assert len(seen) - _march_len(seen) <= 2 * stats["bisections"]
