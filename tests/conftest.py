import numpy as np
import pytest

import design_oracle
import sweep_oracle
from curvefold import curves, parallel
from curvefold.foldio import export_fold, import_fold
from curvefold.foldsim import sweep_to_halt
from curvefold.geometry import partition_uniform
from curvefold.ortho import OrthoDesignSpec, build_ortho_pattern
from curvefold.parallel import ParallelDesignSpec, build_pattern

RHO4 = 5 * np.pi / 6
THETA5 = np.deg2rad(73.0)
THETA7 = np.deg2rad(30.0)


@pytest.fixture(scope="session")
def fig4_partition():
    return partition_uniform(curves.space_arc(), 9)


FIG5_SPEC = ParallelDesignSpec(datum=curves.space_arc(), target=curves.exp_curve(),
                               n_row=9, n_col=9, rho4=RHO4, theta=THETA5, eps=0.4)


@pytest.fixture(scope="session")
def fig5_design():
    return build_pattern(FIG5_SPEC)


@pytest.fixture(scope="session")
def fig5_root_scan_design():
    """fig5 with its first vertex from the root scan of design_oracle."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "solve_first_vertex", design_oracle.solve_first_vertex)
        return build_pattern(FIG5_SPEC)


@pytest.fixture(scope="session")
def fig5_halt(fig5_design):
    pattern, _ = fig5_design
    return sweep_to_halt(pattern, samples=8)


@pytest.fixture(scope="session")
def fig7_design():
    spec = OrthoDesignSpec(datum=curves.sine_curve(), target=curves.t_minus_ln(),
                           n=9, m=9, theta=THETA7, eps=0.2)
    return build_ortho_pattern(spec)


@pytest.fixture(scope="session")
def fig7_halt(fig7_design):
    pattern, _ = fig7_design
    return sweep_to_halt(pattern, samples=8)


@pytest.fixture(scope="session")
def oracle_sweep(request):
    """get(fig, samples, reimport=False): (pattern, trajectory) of
    `sweep_oracle.sweep_to_halt` on the design of "fig5" or "fig7",
    re-imported from its FOLD export when asked.  The oracle's halt search
    runs once per session for each design, and its replay once for each
    sample count.  Only unpatched sweeps belong here: a test that patches
    foldsim calls the oracle itself."""
    halts, cache = {}, {}

    def get(fig, samples, reimport=False):
        if (fig, reimport) not in halts:
            pattern, _ = request.getfixturevalue(f"{fig}_design")
            if reimport:
                pattern, _ = import_fold(export_fold(pattern))
            halts[fig, reimport] = pattern, sweep_oracle.halt_search(pattern)
        key = (fig, samples, reimport)
        if key not in cache:
            pattern, d_halt = halts[fig, reimport]
            cache[key] = pattern, sweep_oracle.replay(pattern, d_halt, samples)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def small_parallel():
    """Fast 4x3 design for simulator unit tests."""
    spec = ParallelDesignSpec(datum=curves.space_arc(129), target=curves.exp_curve(129),
                              n_row=4, n_col=3, rho4=RHO4, theta=THETA5, eps=1.0)
    return build_pattern(spec)


@pytest.fixture(scope="session")
def small_parallel_halt(small_parallel):
    pattern, _ = small_parallel
    return sweep_to_halt(pattern, samples=8)
