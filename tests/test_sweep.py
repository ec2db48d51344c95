"""`sweep_to_halt` against the march, bisect and replay sweep of
`sweep_oracle`: bit-equal trajectories, a march on the exact driving grid,
the clash and range-end branches of the halt search, the vertex chain's
halt, and the lane replay against per-sample `propagate`."""
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings

import sweep_oracle as oracle
from curvefold import curves, foldsim
from curvefold.cli import DEMOS, _build_from_spec
from curvefold.errors import CurvefoldError, NoHalt, NotRigidFoldable, OutOfRange
from curvefold.foldio import export_fold, import_fold, load_design_spec
from curvefold.foldsim import (LANE_BLOCK, MARCH_STEPS, default_driving_crease, propagate,
                               propagate_lanes, sweep_to_halt)
from curvefold.geometry import PolyCurve
from curvefold.parallel import ParallelDesignSpec, build_pattern
from curvefold.tolerances import MODE_ATOL
from support import SMALL_SPECS, assert_same

FIGS = ("fig5", "fig7")
EVENT_AT = 0.6  # driving value (rad) past which the branch tests fake an event


def _record(monkeypatch):
    """|driving| of every propagate call, in call order."""
    seen = []
    real = foldsim.propagate

    def recorded(pattern, driving_rho, *args, **kwargs):
        seen.append(abs(driving_rho))
        return real(pattern, driving_rho, *args, **kwargs)

    monkeypatch.setattr(foldsim, "propagate", recorded)
    return seen


def _record_placed(monkeypatch, pattern):
    """|driving| of every state placed, in call order: the fold of the
    driving crease in each row place_panels places.  The sweeps here place
    every state they make, one at a time or in lanes, and only those."""
    seen = []
    real = foldsim.place_panels
    dc = default_driving_crease(pattern)

    def recorded(pattern, rho):
        seen.extend(np.abs(np.atleast_2d(rho)[:, dc]).tolist())
        return real(pattern, rho)

    monkeypatch.setattr(foldsim, "place_panels", recorded)
    return seen


def _leak(monkeypatch, pattern, at):
    """place_panels reports a closure of 1 x diameter in every row whose
    |driving| satisfies at(d): propagate raises there, and a lane fails."""
    real = foldsim.place_panels
    dc = default_driving_crease(pattern)

    def leaky(pattern, rho):
        coords, res = real(pattern, rho)
        for row, r in zip(np.atleast_2d(rho), res if np.ndim(rho) == 2 else [res]):
            if at(abs(row[dc])):
                r["closure"] = 1.0
        return coords, res

    monkeypatch.setattr(foldsim, "place_panels", leaky)


def _march_len(seen):
    """Leading states on the grid pi * j / MARCH_STEPS, j = 0, 1, ..."""
    n = 0
    while n < len(seen) and seen[n] == np.pi * n / MARCH_STEPS:
        n += 1
    return n


class TestOracle:
    @pytest.mark.parametrize("samples", (2, 4, 8, 64, 200))
    @pytest.mark.parametrize("fig", FIGS)
    def test_bit_equal(self, fig, samples, oracle_sweep):
        pattern, want = oracle_sweep(fig, samples)
        assert_same(sweep_to_halt(pattern, samples=samples), want)

    @pytest.mark.parametrize("fig", FIGS)
    def test_bit_equal_reimported(self, fig, oracle_sweep):
        pattern, want = oracle_sweep(fig, 64, reimport=True)
        assert_same(sweep_to_halt(pattern, samples=64), want)

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_bit_equal_on_small_specs(self, doc):
        # the march's guesses are checked, not assumed: every design that
        # builds sweeps as the oracle does, or fails as it does
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
        except CurvefoldError:
            reject()
        try:  # the oracle's halt search does not depend on the sample count
            d_halt = oracle.halt_search(pattern)
        except CurvefoldError as e:
            d_halt = e
        for samples in (2, 8):
            try:
                if isinstance(d_halt, CurvefoldError):
                    raise d_halt
                want = oracle.replay(pattern, d_halt, samples)
            except CurvefoldError as e:
                with pytest.raises(type(e), match=re.escape(str(e))):
                    sweep_to_halt(pattern, samples=samples)
                continue
            assert_same(sweep_to_halt(pattern, samples=samples), want)


class TestMarch:
    @pytest.mark.parametrize("fig", FIGS)
    def test_two_propagations_per_coarse_step(self, fig, request, monkeypatch):
        # the march makes exactly the grid pi * j / 128 up to the halt
        # bracket, two states per coarse step of pi / 64; a step count
        # taken from a float difference would add a third on some steps.
        # Placed one lane at a time, the states placed are the states the
        # march makes, up to the first out of range, which is not placed
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        monkeypatch.setattr(foldsim, "PLACE_BLOCK", 1)
        seen = _record_placed(monkeypatch, pattern)
        d_halt = sweep_to_halt(pattern, samples=2).driving_values[-1]
        n = _march_len(seen)
        end = np.pi * n / MARCH_STEPS
        assert n > 30
        assert end >= d_halt > seen[n - 3]
        assert all(seen[n - 3] < d < end for d in seen[n:])

    @pytest.mark.parametrize("how", ("signs", "mode"))
    @pytest.mark.parametrize("lane", (0, 17))
    @pytest.mark.parametrize("fig", FIGS)
    def test_wrong_guess_falls_back(self, fig, lane, how, monkeypatch, oracle_sweep):
        # the march's first lane pass, the guess of its first block, goes
        # wrong at `lane`: scored from there on by the opposite M/V signs,
        # or with the first vertex of the first kernel group forced onto
        # its other mode, the vertices after it solved from that fold.
        # Either way the guess is a consistent pass that is not the
        # march's, so that lane re-scores differently: the march keeps the
        # lanes before it and goes on one state at a time from it,
        # bit-equal to the oracle
        pattern, want = oracle_sweep(fig, 8)
        real_levels, real_lanes, real_branch = (foldsim._fold_levels, foldsim._fold_lanes,
                                                foldsim._branch)
        passes, forced = [], []

        def lane_pass(pattern, driving_rho, prev):
            passes.append(len(driving_rho))
            return real_lanes(pattern, driving_rho, prev)

        def fold_levels(pattern, driving_rho, prev, signs):
            if len(passes) == 1 and np.ndim(driving_rho) and how == "signs":
                flip = np.where(np.arange(len(driving_rho)) >= lane, -1, 1)
                signs = [s * flip for s in signs]
            return real_levels(pattern, driving_rho, prev, signs)

        def branch(modes, two, prev, signs):
            got = real_branch(modes, two, prev, signs)
            if len(passes) == 1 and isinstance(modes, np.ndarray) and not forced \
                    and how == "mode":
                # the other mode of vertex 0 of the group, in lanes >= lane
                plus, minus = modes
                other = np.where(got == plus, minus, plus)[:, :1]
                at = np.arange(got.shape[-1]) >= lane
                assert two[0, at].all()
                forced.append(True)
                got[:, :1] = np.where(at, other, got[:, :1])
            return got

        monkeypatch.setattr(foldsim, "_fold_lanes", lane_pass)
        monkeypatch.setattr(foldsim, "_fold_levels", fold_levels)
        monkeypatch.setattr(foldsim, "_branch", branch)
        seen = _record(monkeypatch)
        got = sweep_to_halt(pattern, samples=8)
        # the first block ends one even step past the first even step at or
        # above the chain's halt: step 40 on fig7
        assert passes[0] == (64 if fig == "fig5" else 40)
        assert seen[:2] == [0.0, np.pi * (lane + 1) / MARCH_STEPS]
        assert_same(got, want)

    @pytest.mark.parametrize("fig, j", [("fig5", 30), ("fig5", 80), ("fig7", 9), ("fig7", 30)])
    def test_failing_lane_brackets_as_scalar(self, fig, j, request, monkeypatch):
        # the march state pi * j / 128, a lane inside its first or second
        # block, reports a closure beyond tolerance: the march stops there,
        # and the search stays in the bracket from the even state below it.
        # No event lies below, so the sweep ends as the oracle's does.  The
        # leak spans 1e-12 rad: the oracle's substeps can miss the grid by
        # an ulp
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        bad = np.pi * j / MARCH_STEPS
        _leak(monkeypatch, pattern, lambda d: abs(d - bad) < 1e-12)
        with pytest.raises(NoHalt) as want:
            oracle.sweep_to_halt(pattern, samples=8)
        seen = _record_placed(monkeypatch, pattern)
        with pytest.raises(NoHalt) as got:
            sweep_to_halt(pattern, samples=8)
        assert str(got.value) == str(want.value) == \
            "folding range ends with no crease at pi and no clash"
        n = _march_len(seen)
        lo = np.pi * (j - 1 - (j - 1) % 2) / MARCH_STEPS
        assert n > j and seen[n:]
        assert all(lo < d < bad for d in seen[n:])


def _fake_clash(real, seen=None):
    """The batched clash test `foldsim._clashes`, with a clash in every
    state past EVENT_AT; `seen` collects each state's |driving|.  The
    oracle's `clash_test` runs through it too."""
    def clashes(pattern, states):
        if seen is not None:
            seen.extend(abs(st.driving_rho) for st in states)
        return [[(0, 1)] if abs(st.driving_rho) > EVENT_AT else hits
                for st, hits in zip(states, real(pattern, states))]
    return clashes


def _guess(pattern, j0, flip_from=LANE_BLOCK):
    """The march's guess pass over the steps j0, ..., j0 + LANE_BLOCK - 1,
    scored as from flat, by the opposite M/V signs from lane flip_from on:
    the driving values and what `_fold_lanes` returns."""
    sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
    driving = np.array([sgn * np.pi * j / MARCH_STEPS for j in range(j0, j0 + LANE_BLOCK)])
    prev, signs = foldsim._scoring(pattern, np.zeros((LANE_BLOCK, len(pattern.creases))))
    signs = signs * np.where(np.arange(LANE_BLOCK) >= flip_from, -1, 1)
    rho, mismatch, ok, modes = foldsim._fold_levels(pattern, driving, prev, signs)
    return driving, (rho, mismatch, ok & (mismatch <= foldsim.FOLD_CONSISTENCY), modes)


def _check_rescore(pattern, j0=1, before=None):
    """The march's re-score of the guess from step j0, each lane against
    the state before it (the folds `before`, flat by default, then the
    guess's lane before): every lane it calls exact must be what a full
    check pass from those states gives, folds, mismatch and failure.
    Returns the exact lanes and the guess's folds."""
    driving, (rho, mismatch, ok, modes) = _guess(pattern, j0)
    first = np.zeros(len(pattern.creases)) if before is None else before
    prev = np.vstack([first, rho[:-1]])
    exact = foldsim._rescored(pattern, modes, prev)
    check = foldsim._fold_lanes(pattern, driving, prev)
    if check is None:  # no lane of the check has a branch
        assert not ok[exact].any()
        return exact, rho
    assert np.array_equal(check[0][exact].view(np.uint64), rho[exact].view(np.uint64))
    assert np.array_equal(check[1][exact].view(np.uint64), mismatch[exact].view(np.uint64))
    assert np.array_equal(check[2][exact], ok[exact])
    return exact, rho


class TestRescore:
    @pytest.mark.parametrize("fig", ("fig5", "fig7", "fig5-reimported"))
    def test_exact_lanes_are_the_check_pass(self, fig, request):
        # the march's two blocks: the first from flat, the second (steps
        # 65 to 128) from the first's last lane
        pattern, _ = request.getfixturevalue(f"{fig[:4]}_design")
        if fig.endswith("reimported"):
            pattern, _ = import_fold(export_fold(pattern))
        exact, rho = _check_rescore(pattern)
        assert exact.sum() >= 36
        if exact.all():
            exact, _ = _check_rescore(pattern, LANE_BLOCK + 1, rho[-1])
            assert exact.sum() >= 42

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(SMALL_SPECS)
    def test_exact_lanes_on_small_specs(self, doc):
        try:
            pattern, _ = _build_from_spec(*load_design_spec(json.dumps(doc)))
            _check_rescore(pattern)
        except CurvefoldError:
            reject()

    @pytest.mark.parametrize("lane", (0, 17, 35))
    @pytest.mark.parametrize("fig", FIGS)
    def test_flipped_signs_first_inexact(self, fig, lane, request):
        # a guess scored by the opposite M/V signs from `lane` on is exact
        # up to that lane and not at it
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        _, (rho, _, _, modes) = _guess(pattern, 1, flip_from=lane)
        prev = np.vstack([np.zeros(len(pattern.creases)), rho[:-1]])
        exact = foldsim._rescored(pattern, modes, prev)
        assert exact[:lane].all() and not exact[lane]


class TestBranches:
    def test_clash_halt(self, fig7_design, monkeypatch):
        pattern, _ = fig7_design
        monkeypatch.setattr(foldsim, "_clashes", _fake_clash(foldsim._clashes))
        seen = _record_placed(monkeypatch, pattern)
        stats = {}
        want = oracle.sweep_to_halt(pattern, samples=2, stats=stats)
        seen.clear()
        got = sweep_to_halt(pattern, samples=2)
        assert got.halt.halt_reason == "panel-interpenetration"
        assert got.driving_values[-1] == np.nextafter(EVENT_AT, np.inf)
        assert_same(got, want)
        # with two samples the states at 0 and d_halt are the kept ones, so
        # every state placed after the march is a step of the halt search.
        # The chain's crease halt lies past the bracket, and the search is
        # the oracle's bisection, but for its first midpoint: the march's
        # odd step pi * 25 / 128, which the march has placed
        assert len(seen) - _march_len(seen) == stats["bisections"] - 1

    def test_clash_halt_tests_halt_once(self, fig7_design, monkeypatch):
        # the halt state is the search's last event: its halt reason comes
        # from that test, not from a second clash test
        pattern, _ = fig7_design
        seen = []
        monkeypatch.setattr(foldsim, "_clashes", _fake_clash(foldsim._clashes, seen))
        got = sweep_to_halt(pattern, samples=2)
        assert got.halt.halt_reason == "panel-interpenetration"
        assert seen.count(got.driving_values[-1]) == 1

    def test_range_end_without_event(self, fig7_design, monkeypatch):
        # every state past EVENT_AT fails its closure, in the march's lanes
        # as in the oracle's propagate
        pattern, _ = fig7_design
        _leak(monkeypatch, pattern, lambda d: d > EVENT_AT)
        seen = _record_placed(monkeypatch, pattern)
        stats = {}
        with pytest.raises(NoHalt, match="folding range ends"):
            oracle.sweep_to_halt(pattern, samples=2, stats=stats)
        seen.clear()
        with pytest.raises(NoHalt, match="folding range ends"):
            sweep_to_halt(pattern, samples=2)
        # the oracle's first midpoint, step 25, fails in the march
        assert len(seen) - _march_len(seen) == stats["bisections"] - 1


@pytest.fixture(scope="module")
def large_ortho():
    """The 34 x 34 design of test_cli's test_large_ortho_design, and the
    oracle's halt of it."""
    pattern, _ = _build_from_spec(*load_design_spec(json.dumps({
        "type": "orthodiagonal", "datum": {"builtin": "fig7-sine"},
        "target": {"builtin": "fig7-tlnt"}, "n": 34, "m": 34, "theta": "auto", "eps": 0.2})))
    return pattern, oracle.halt_search(pattern)


class TestChain:
    @pytest.fixture(params=("fig5", "fig7", "fig5-reimported", "fig7-reimported", "34x34"))
    def halted(self, request, oracle_sweep):
        """(pattern, the oracle's halt) of each design"""
        if request.param == "34x34":
            return request.getfixturevalue("large_ortho")
        pattern, want = oracle_sweep(request.param[:4], 2,
                                     reimport=request.param.endswith("reimported"))
        return pattern, want.driving_values[-1]

    def test_flat_scored_halt_within_two_ulps(self, halted):
        # the chain scored as from flat, as the march's blocks take it,
        # lands within 2 ulps of the halt the oracle bisects to
        pattern, d_halt = halted
        d = foldsim._chain_halt(pattern, np.zeros(len(pattern.creases)))
        assert abs(d - d_halt) <= 2 * math.ulp(d_halt)

    def test_at_most_three_states_after_the_march(self, halted, monkeypatch):
        # with two samples the states at 0 and d_halt are the kept ones, so
        # every state placed after the march is a state of the halt search
        pattern, d_halt = halted
        seen = _record_placed(monkeypatch, pattern)
        assert sweep_to_halt(pattern, samples=2).driving_values[-1] == d_halt
        assert 0 < len(seen) - _march_len(seen) <= 3

    @pytest.mark.parametrize("how", ("none", "below", "above"))
    @pytest.mark.parametrize("fig", FIGS)
    def test_wrong_chain_keeps_the_bits(self, fig, how, monkeypatch, oracle_sweep):
        # the chain's halt only steers where the march's blocks end and
        # which states the search tries first: none, or one 1e-3 rad off
        # the halt, still sweeps as the oracle does
        pattern, want = oracle_sweep(fig, 8)
        d_halt = want.driving_values[-1]
        d = {"none": None, "below": d_halt - 1e-3, "above": d_halt + 1e-3}[how]
        monkeypatch.setattr(foldsim, "_chain_halt", lambda pattern, prev: d)
        assert_same(sweep_to_halt(pattern, samples=8), want)


@pytest.fixture(scope="module")
def fig4_design():
    return _build_from_spec(*load_design_spec(json.dumps(DEMOS["fig4"])))


@pytest.fixture(scope="module")
def explore_design():
    """The seed-1 parallel spec of size (3, 12) of the benchmark's explore
    batch, theta as its auto scan picks it."""
    target = curves.exp_curve(257)
    return build_pattern(ParallelDesignSpec(
        datum=curves.space_arc(257),
        target=PolyCurve(target.samples * 0.6990870174183882, target.param),
        n_row=3, n_col=12, rho4=2.72295144949214, theta=1.2217304763960306, eps=10.0))


@pytest.fixture(scope="module")
def one_vertex():
    spec = ParallelDesignSpec(datum=curves.space_arc(65), target=curves.exp_curve(65),
                              n_row=1, n_col=1, rho4=5 * np.pi / 6, theta=np.deg2rad(73),
                              eps=2.0)
    return build_pattern(spec)[0]


def _pow_mul_splits(rng, want=3, draws=50000):
    """(a, b, c) with b ** 2 + c ** 2 < a ** 2 deciding otherwise than
    b * b + c * c < a * a: Python's ** is libm's pow, which can round x ** 2
    away from x * x.  Fewer, or none, where pow rounds squares exactly."""
    found = []
    for _ in range(draws):
        b, c = rng.uniform(0.01, 0.5, 2).tolist()
        a = (b ** 2 + c ** 2) ** 0.5
        for step in (0, 1, 1, 1, -4, -1, -1):
            for _ in range(abs(step)):
                a = float(np.nextafter(a, np.copysign(np.inf, step)))
            if (b ** 2 + c ** 2 < a ** 2) != (b * b + c * c < a * a):
                found.append((a, b, c))
                break
        if len(found) == want:
            break
    return found


def _march(pattern, sgn, d, prev):
    """State at d reached from prev in steps of at most pi / MARCH_STEPS."""
    steps = int(np.ceil((d - abs(prev.driving_rho)) * MARCH_STEPS / np.pi))
    for x in np.linspace(abs(prev.driving_rho), d, steps + 1)[1:]:
        prev = propagate(pattern, sgn * x, prev=prev)
    return prev


def _scalar_or_none(pattern, d, prev):
    try:
        return propagate(pattern, d, prev=prev)
    except (OutOfRange, NotRigidFoldable):
        return None


class TestLanes:
    @pytest.mark.parametrize("design", ("fig4_design", "fig5_design", "fig7_design",
                                        "small_parallel", "explore_design"))
    def test_bit_equal_to_propagate(self, design, request):
        # lanes scored against a flat prev (by M/V sign) and a folded one
        # (by distance) share one pass; the last lanes leave the folding
        # range and must fail where propagate raises
        pattern, _ = request.getfixturevalue(design)
        sgn = pattern.creases[default_driving_crease(pattern)].mv or 1
        flat = propagate(pattern, 0.0)
        mid = _march(pattern, sgn, 0.3, flat)
        end = _march(pattern, sgn, 0.8, mid)  # fig7 halts at 0.885 rad
        cases = [(0.004, flat), (0.02, flat), (0.31, mid), (0.32, mid), (0.33, mid),
                 (0.81, end), (0.82, end), (3.1, end), (np.pi, end)]
        got = propagate_lanes(pattern, [sgn * d for d, _ in cases], [p for _, p in cases])
        assert len(got) == len(cases)
        want = [_scalar_or_none(pattern, sgn * d, p) for d, p in cases]
        assert [w is None for w in want] == [g is None for g in got]
        assert sum(w is not None for w in want) >= 6
        for g, w in zip(got, want):
            if w is not None:
                assert g.driving_rho == w.driving_rho
                assert np.array_equal(g.rho, w.rho)
                assert np.array_equal(g.vertex_coords, w.vertex_coords)
                assert g.residuals == w.residuals

    def test_scores_as_assign_fold_angles(self, one_vertex, monkeypatch):
        # made-up branch pairs, one lane each, on a one-vertex pattern:
        # exact distance ties, near ties that x ** 2 and x * x decide
        # differently, M/V count ties near flat, folds at the 1e-12 sign
        # threshold, a pair that dedups, and input mismatches below and
        # above FOLD_CONSISTENCY.  Each lane must pick and report as
        # assign_fold_angles does on its own
        pattern = one_vertex
        cids = pattern.vertex_creases.reshape(-1, 4)[0].tolist()
        assert cids[0] == default_driving_crease(pattern)
        table = {}

        def lane(plus, minus, prev=None):
            d = 0.1 + 0.01 * len(table)
            row = np.zeros(len(pattern.creases))
            if prev is not None:
                row[cids] = [d, *prev]
            table[d] = ([d + plus[0], *plus[1:]], [d + minus[0], *minus[1:]], row)

        lane((0, 0.2, 0, 0.5), (0, -0.2, 0, 0.5), (0, 0, 0.5))      # exact tie
        lane((0, 0.3, 0, 0), (0, 0.1, 0, 0), (0, 0, 0.5))          # minus closer
        splits = _pow_mul_splits(np.random.default_rng(5))
        for a, b, c in splits:
            lane((0, a, 0, 0), (0, b, c, 0), (0, 0, 0))
            lane((0, b, c, 0), (0, a, 0, 0), (0, 0, 0))
        lane((0, -0.2, 0.3, 0.1), (0, 0.2, 0.3, -0.1))             # M/V count
        lane((0, 0.2, 0.3, -0.1), (0, 0.2, 0.3, -0.101))           # M/V tie, norm
        lane((0, 0.2, 0.3, -0.1), (0, 0.2, 0.29, -0.1))
        lane((0, 1e-13, 0.3, -0.1), (0, -1e-13, 0.3, -0.1))        # sign threshold
        lane((0, 0.2, 0.3, -0.1), (0, 0.2, 0.3, -0.1 + 1e-7))      # dedups
        lane((5e-8, 0.2, 0.3, -0.1), (5e-8, 0.2, 0.3, -0.1))       # mismatch below
        lane((2e-7, 0.2, 0.3, -0.1), (2e-7, -0.2, 0.3, -0.1))      # and above

        def made_up(v, j_in, rho_in):
            # the branch pairs of the lanes rho_in, deduplicated by the
            # rule of propagate_both_modes; on lanes rho_in is (G, L), here
            # with one vertex (G = 1)
            plus, minus = (np.array([table[x][m] for x in np.ravel(rho_in).tolist()]).T
                           for m in (0, 1))
            two = ~np.isclose(minus, plus, atol=MODE_ATOL).all(axis=0)
            if np.ndim(rho_in) == 0:
                return True, plus[:, 0].tolist(), minus[:, 0].tolist(), bool(two[0])
            shape = np.shape(rho_in)
            return (np.ones(shape, dtype=bool), plus.reshape(4, *shape),
                    minus.reshape(4, *shape), two.reshape(shape))

        monkeypatch.setattr(foldsim, "propagate_both_modes", made_up)
        # the lanes place nothing: their closure is not in question here
        monkeypatch.setattr(foldsim, "place_panels", lambda pattern, rho: (
            np.zeros((len(rho), len(pattern.vertices), 3)),
            [{"closure": 0.0, "vertex_spread": 0.0} for _ in rho]))
        ds = list(table)
        prevs = [SimpleNamespace(rho=table[d][2]) for d in ds]
        got = propagate_lanes(pattern, ds, prevs)
        picked = {}
        for d, st, prev in zip(ds, got, prevs):
            try:
                want, mismatch = foldsim.assign_fold_angles(pattern, d, prev.rho)
            except NotRigidFoldable:
                assert st is None
                continue
            assert np.array_equal(st.rho, want) and st.residuals["fold_mismatch"] == mismatch
            picked[d] = want[cids[1]]
        assert len(picked) == len(ds) - 1
        # a near tie goes to the smaller sum of products x * x, and mode -1
        # only when strictly smaller
        for k, (a, b, c) in enumerate(splits):
            assert picked[ds[2 + 2 * k]] == (b if b * b + c * c < a * a else a)
            assert picked[ds[3 + 2 * k]] == (a if a * a < b * b + c * c else b)

    def test_one_lane_is_propagate(self, small_parallel, monkeypatch):
        pattern, _ = small_parallel
        flat = propagate(pattern, 0.0)
        seen = _record(monkeypatch)
        (st,) = propagate_lanes(pattern, [0.2], [flat])
        assert seen == [0.2]
        assert np.array_equal(st.rho, propagate(pattern, 0.2, prev=flat).rho)

    @pytest.mark.parametrize("fig", FIGS)
    def test_closure_failure_raises_as_scalar(self, fig, request, monkeypatch):
        # two samples of the replay's one lane pass report a closure beyond
        # tolerance, the later one a larger one: the sweep raises the scalar
        # error of the first failing sample in order, as the oracle does
        pattern, _ = request.getfixturevalue(f"{fig}_design")
        passes = []
        real_lanes = foldsim.propagate_lanes

        def recorded(pattern, driving_rho, *args, **kwargs):
            if len(driving_rho) > 1:
                passes.append([abs(d) for d in driving_rho])
            return real_lanes(pattern, driving_rho, *args, **kwargs)

        monkeypatch.setattr(foldsim, "propagate_lanes", recorded)
        traj = sweep_to_halt(pattern, samples=64)
        (lanes,) = passes
        at = {abs(st.driving_rho): st.rho for st in traj.states}
        bad = [(at[lanes[len(lanes) // 3]], 1.0), (at[lanes[-1]], 2.0)]
        real = foldsim.place_panels

        def leaky(pattern, rho):
            coords, res = real(pattern, rho)
            for row, r in zip(np.atleast_2d(rho), res if np.ndim(rho) == 2 else [res]):
                for folds, closure in bad:
                    if np.array_equal(row, folds):
                        r["closure"] = closure
            return coords, res

        monkeypatch.setattr(foldsim, "place_panels", leaky)
        with pytest.raises(NotRigidFoldable) as want:
            oracle.sweep_to_halt(pattern, samples=64)
        with pytest.raises(NotRigidFoldable) as got:
            sweep_to_halt(pattern, samples=64)
        assert str(got.value) == str(want.value) == "panel loop closure 1 x diameter"
        assert got.value.residual == want.value.residual == 1.0

    @pytest.mark.parametrize("samples", (1, 0, -3))
    def test_fewer_than_two_samples(self, small_parallel, samples):
        with pytest.raises(ValueError, match="samples must be at least 2"):
            sweep_to_halt(small_parallel[0], samples=samples)
