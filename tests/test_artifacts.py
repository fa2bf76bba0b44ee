import fractions
import math
import os
import stat

import numpy as np
import pytest

from qsdlab.analytics import ReportConfig, decay_report, save_report_json, write_curves_csv
from qsdlab.artifacts import write_csv
from qsdlab.grid_measure import GridMeasure, build_grid, save_measure_csv
from qsdlab.montecarlo import ParticleEnsemble, save_positions_csv, save_survival_csv
from qsdlab.potential import zero_potential
from qsdlab.spectral import EigenPair, save_eigen_csv, save_eigen_json

GRID = build_grid(-1.0, 1.0, 60)


def _report():
    mu = GridMeasure(GRID, np.cos(0.5 * math.pi * GRID.nodes) ** 3)
    return decay_report(ReportConfig(label="b", spec=zero_potential(domain=(-1.0, 1.0)),
                                     grid=GRID, initial=mu, times=np.linspace(0.0, 0.5, 6)))


def _write_report_curves(path):
    report = _report()
    write_curves_csv(path, report.times, vars(report))


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
    "curves": _write_report_curves,
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


@pytest.mark.parametrize("name", SAVERS)
def test_new_file_mode_needs_no_umask_change(tmp_path, monkeypatch, name):
    # the umask is process state that other threads see; the writer leaves it alone
    def refuse(mask):
        raise AssertionError("the umask was changed")

    target = tmp_path / "artifact"
    old = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", refuse)
            SAVERS[name](target)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o666 & ~0o027
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_eigen_json_gap_is_null_without_lambda1(tmp_path):
    eigen = EigenPair(lambda0=1.25, eta=_EIGEN.eta)
    assert eigen.gap is None and _EIGEN.gap == 3.75
    save_eigen_json(eigen, tmp_path / "e.json")
    assert (tmp_path / "e.json").read_text() == (
        '{\n  "lambda0": 1.25,\n  "lambda1": null,\n  "gap": null,\n'
        '  "normalization": "alpha(eta) = 1"\n}\n')


def _per_value(header, columns):
    """The CSV text of Python's per-value '%.17g' and, in integer columns, '%d'."""
    rows = zip(*(col.tolist() for col in columns))
    lines = [header] + [",".join("%d" % v if isinstance(v, int) else "%.17g" % v for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def _assert_per_value_bytes(tmp_path, *columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _per_value(header, columns).encode()


def test_random_bit_patterns_match_per_value_formatting(tmp_path):
    # uniform bits: every exponent, both signs, subnormals, NaN payloads, infinities
    bits = np.random.default_rng(21).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    x = np.concatenate((bits.view(np.float64), [math.inf, -math.inf, math.nan, -math.nan],
                        np.array([0x7FF0000000000001, 0xFFF8000000000123], np.uint64).view(np.float64)))
    _assert_per_value_bytes(tmp_path, *x.reshape(2, -1))


def test_powers_of_ten_and_layout_edges_match_per_value_formatting(tmp_path):
    # the nearest double to every 10^k and its neighbours: the %g switches at
    # 1e-5/1e-4 and 1e16/1e17, the kernel's range ends 1e-290 and 1e290, and
    # doubles such as 1e-14 or 1e98 that lie just below 10^k, so that their 17
    # digits round up to the next power of ten
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate((p, np.nextafter(p, 0.0), np.nextafter(p, math.inf),
                        [5e-324, 2.0**-1022, np.finfo(np.float64).max, 0.0, -0.0, 9.5, 0.5, 1.5, 2.5]))
    assert "%.17g" % 1e-14 == "1e-14" and 1e-14 < fractions.Fraction(1, 10**14)
    _assert_per_value_bytes(tmp_path, x, -x)


def test_exact_ties_match_per_value_formatting(tmp_path):
    # k 2^-j with k odd has the 18 significant digits of k 5^j, the last a 5:
    # an exact tie at 17 digits, which Python rounds half to even
    rng = np.random.default_rng(22)
    ties = []
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        for k in {low, high - 1, *rng.integers(low, high, 40).tolist()}:
            if k % 2 and 10**17 <= k * 5**j < 10**18:
                ties.append(k * 2.0**-j)
    assert len(ties) > 400
    x = np.array(ties)
    _assert_per_value_bytes(tmp_path, x, -x * 2.0**-40, x * 2.0**40)


def test_integer_extremes_match_per_value_formatting(tmp_path):
    signed = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -(10**17), -(10**17) + 1,
                       10**17 - 1, 10**17, -1, 0, 1, 10**16], np.int64)
    unsigned = np.array([np.iinfo(np.uint64).max, 2**63, 10**17, 10**17 - 1, 0, 1, 10, 99, 100, 7],
                        np.uint64)
    _assert_per_value_bytes(tmp_path, signed, unsigned, signed.astype(np.float64),
                            np.arange(10, dtype=np.int8) - 5)
