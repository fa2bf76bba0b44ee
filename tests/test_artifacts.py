import math
import os
import stat

import numpy as np
import pytest

from qsdlab.analytics import ReportConfig, decay_report, save_curves_csv, save_report_json
from qsdlab.grid_measure import GridMeasure, build_grid, save_measure_csv
from qsdlab.montecarlo import ParticleEnsemble, save_positions_csv, save_survival_csv
from qsdlab.potential import zero_potential
from qsdlab.spectral import EigenPair, save_eigen_csv, save_eigen_json

GRID = build_grid(-1.0, 1.0, 60)


def _report():
    mu = GridMeasure(GRID, np.cos(0.5 * math.pi * GRID.nodes) ** 3)
    return decay_report(ReportConfig(label="b", spec=zero_potential(domain=(-1.0, 1.0)),
                                     grid=GRID, initial=mu, times=np.linspace(0.0, 0.5, 6)))


_ENSEMBLE = ParticleEnsemble(
    positions=np.array([[0.25], [-0.5]]), alive_count=2, t=0.1, initial_count=4,
    log_survival_estimate=math.log(0.5),
    survival_curve=np.array([[0.0, 1.0, 0.0], [0.1, 0.5, math.log(0.5)]]),
)
_EIGEN = EigenPair(lambda0=1.25, eta=np.cos(0.5 * math.pi * GRID.nodes), lambda1=5.0)

# every library saver, as a call that writes to the given path
SAVERS = {
    "measure": lambda path: save_measure_csv(GridMeasure(GRID, np.ones(GRID.n)), path),
    "eigen_json": lambda path: save_eigen_json(_EIGEN, path),
    "eigen_csv": lambda path: save_eigen_csv(_EIGEN, GRID, path),
    "survival": lambda path: save_survival_csv(_ENSEMBLE, path),
    "positions": lambda path: save_positions_csv(_ENSEMBLE, path),
    "report_json": lambda path: save_report_json(_report(), path),
    "curves": lambda path: save_curves_csv(_report(), path),
}


@pytest.mark.parametrize("name", SAVERS)
def test_failed_replace_keeps_target_and_leaves_no_temp(tmp_path, monkeypatch, name):
    target = tmp_path / "artifact"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        SAVERS[name](target)
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("name", SAVERS)
def test_new_file_mode_follows_umask(tmp_path, name):
    target = tmp_path / "artifact"
    old = os.umask(0o027)
    try:
        SAVERS[name](target)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o666 & ~0o027
    assert not list(tmp_path.glob("*.tmp"))


def test_eigen_json_gap_is_null_without_lambda1(tmp_path):
    eigen = EigenPair(lambda0=1.25, eta=_EIGEN.eta)
    assert eigen.gap is None and _EIGEN.gap == 3.75
    save_eigen_json(eigen, tmp_path / "e.json")
    assert (tmp_path / "e.json").read_text() == (
        '{\n  "lambda0": 1.25,\n  "lambda1": null,\n  "gap": null,\n'
        '  "normalization": "alpha(eta) = 1"\n}\n')
