"""Run one qsdlab benchmark workload and print its metrics.

    python3 bench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

One client in this process runs a closed loop of CLI requests through
``qsdlab.cli.run(argv)``: each request starts when the previous one has
finished.  The run

1. times a fresh interpreter importing ``qsdlab.cli`` three times, and three
   more times after the timed passes (``setup_s``, the median of the six);
2. generates the workload's inputs from ``--seed`` and computes the
   references its checks need;
3. runs one untimed warm-up pass of every request, which also records the
   bytes of every artifact, then the known-defect probes once;
4. repeats timed passes of the request list while another pass fits in
   ``--seconds``, checking every request's artifacts after each pass against
   its reference and against the warm-up bytes;
5. prints the metrics by name with their units, writes a results file under
   ``.bench_work/results/`` and prints, as its last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
traced and untraced passes alternate; the traced ones give the per-layer
metrics (see ``tracing.py``) and the untraced ones the tracing overhead.
The package is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 when it is not there.  README.md in this directory says
why each workload was chosen and which metric should move where.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread and the package's default of one Monte Carlo thread, set
# before numpy is imported by anything
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
QSD_LAB_THREADS_FOUND = os.environ.pop("QSD_LAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# fresh imports timed before the passes and again after them; on a shared
# host the speed can drift over tens of seconds, so the median sees both ends
# of the run
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ref_err": "rel",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.artifact_bytes": "count",
    "analytics.self_s": "s",
    "spectral.assemble_s": "s",
    "spectral.eigensolve_s": "s",
    "spectral.eigensolve_calls": "calls/request",
    "doob.flow_s": "s",
    "doob.cn_steps": "count",
    "doob.node_steps_per_s": "1/s",
    "montecarlo.simulate_s": "s",
    "montecarlo.particle_steps_per_s": "1/s",
    "montecarlo.useful_draw_frac": "fraction",
    "potential.evaluate_s": "s",
    "potential.evaluate_calls": "count",
    "grid_measure.distance_s": "s",
    "grid_measure.distance_calls": "count",
    "trace_overhead_frac": "fraction",
}
# printed and kept in the results file, not part of the final line
EXTRA_UNITS = {
    "fail_frac": "fraction",
    "lambda0_metastable_digits": "digits",
    "flow_err": "rel",
    "mc_lambda0_relerr": "rel",
}


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters importing qsdlab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import qsdlab.cli"]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_context() -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "QSD_LAB_THREADS": os.environ.get("QSD_LAB_THREADS"),
        "QSD_LAB_THREADS_found_and_unset": QSD_LAB_THREADS_FOUND,
    }


class Runner:
    """Executes and checks requests; holds the warm-up artifact hashes."""

    def __init__(self, cli, workload, outdir_of, tracer=None):
        self.cli = cli
        self.workload = workload
        self.outdir_of = outdir_of
        self.tracer = tracer
        self.reference_bytes: dict[str, dict[str, str]] = {}

    def execute(self, req, request_index: int) -> workloads.Outcome:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = request_index
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run([*req.argv, "--output", self.outdir_of(req.name)])
            except Exception:  # an escaped exception ends a real CLI run with code 1
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - t0
        lines = err.getvalue().strip().splitlines()
        first = lines[0] if lines else ""
        if lines and lines[0].startswith("Traceback"):
            first = lines[-1]
        return workloads.Outcome(exit_code=code, seconds=seconds, stdout=out.getvalue(), stderr_first_line=first)

    def artifact_hashes(self, name: str) -> dict[str, str]:
        outdir = Path(self.outdir_of(name))
        if not outdir.is_dir():
            return {}
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}

    def check(self, req, outcome, compare_bytes: bool) -> None:
        if outcome.exit_code != 0:
            outcome.error = f"exit code {outcome.exit_code}: {outcome.stderr_first_line}"
            return
        try:
            req.check(self.outdir_of(req.name), outcome.stdout, outcome.fig)
        except workloads.CheckError as exc:
            outcome.error = str(exc)
        except Exception as exc:  # a missing or malformed artifact fails the request
            outcome.error = f"{type(exc).__name__}: {exc}"
        if compare_bytes and not outcome.error:
            ref, now = self.reference_bytes.get(req.name, {}), self.artifact_hashes(req.name)
            changed = sorted(k for k in set(ref) | set(now) if ref.get(k) != now.get(k))
            if changed:
                outcome.error = f"artifact bytes differ from the warm-up run with the same argv: {changed}"

    def run_pass(self, requests, compare_bytes: bool = True):
        """Run the requests back to back, then check them; returns (wall seconds, outcomes)."""
        t0 = time.perf_counter()
        outcomes = {req.name: self.execute(req, i) for i, req in enumerate(requests)}
        wall = time.perf_counter() - t0
        for req in requests:
            self.check(req, outcomes[req.name], compare_bytes)
        return wall, outcomes

    def warm_up(self):
        wall, outcomes = self.run_pass(self.workload.requests, compare_bytes=False)
        for req in self.workload.requests:
            self.reference_bytes[req.name] = self.artifact_hashes(req.name)
        return wall, outcomes


def layer_metrics(spans, counters, outcomes, requests, outdir_of) -> dict:
    st = tracing.self_times(spans)
    calls = tracing.call_counts(spans)
    flow_s = st.get("doob.flow", 0.0)
    sim_s = st.get("montecarlo.simulate", 0.0)
    alive = sum(o.fig.get("alive_at_step_start", 0.0) for o in outcomes.values())
    draws = sum(o.fig.get("particle_steps", 0) for o in outcomes.values())
    artifact_bytes = sum(p.stat().st_size for req in requests
                         for p in Path(outdir_of(req.name)).glob("*") if p.is_file())
    return {
        "cli.self_s": st.get("cli.self", 0.0),
        "cli.artifact_bytes": artifact_bytes,
        "analytics.self_s": st.get("analytics.self", 0.0),
        "spectral.assemble_s": st.get("spectral.assemble", 0.0),
        "spectral.eigensolve_s": st.get("spectral.eigensolve", 0.0),
        "spectral.eigensolve_calls": (calls.get("spectral.principal_eigenpair", 0)
                                      + calls.get("spectral.spectral_gap", 0)) / len(requests),
        "doob.flow_s": flow_s,
        "doob.cn_steps": counters.get("doob.cn_steps", 0),
        "doob.node_steps_per_s": counters.get("doob.node_steps", 0) / flow_s if flow_s else 0.0,
        "montecarlo.simulate_s": sim_s,
        "montecarlo.particle_steps_per_s": counters.get("montecarlo.particle_steps", 0) / sim_s if sim_s else 0.0,
        "montecarlo.useful_draw_frac": alive / draws if draws else 0.0,
        "potential.evaluate_s": st.get("potential.evaluate", 0.0),
        "potential.evaluate_calls": calls.get("potential.evaluate", 0),
        "grid_measure.distance_s": st.get("grid_measure.distance", 0.0),
        "grid_measure.distance_calls": sum(calls.get(f"grid_measure.{f}", 0)
                                           for f in ("tv_distance", "w1_distance", "chi2_divergence")),
    }


@dataclass
class Pass:
    traced: bool
    wall: float
    outcomes: dict
    layers: dict | None = None
    spans: list | None = None


def timed_passes(runner, requests, tracer, seconds: float, estimate: float) -> list[Pass]:
    """Passes while another one fits in ``seconds``; with a tracer, traced and
    untraced passes alternate and there is at least one of each."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(p.traced for p in passes)
        if tracer is None:
            enough, traced = bool(passes), False
        else:
            enough = 0 < n_traced < len(passes)
            traced = n_traced <= len(passes) - n_traced
        if enough and time.perf_counter() - start + estimate > seconds:
            return passes
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, outcomes = runner.run_pass(requests)
            finally:
                tracer.uninstall()
            layers = layer_metrics(tracer.spans, tracer.counters, outcomes, requests, runner.outdir_of)
            passes.append(Pass(True, wall, outcomes, layers, [vars(s).copy() for s in tracer.spans]))
        else:
            passes.append(Pass(False, *runner.run_pass(requests)))
        estimate = statistics.median(p.wall for p in passes)


def _outcome_record(req, o) -> dict:
    rec = {"request": req.name, "command": req.command, "exit_code": o.exit_code,
           "seconds": o.seconds, "ok": o.ok, "figures": o.fig}
    if o.error:
        rec.update(error=o.error, stderr_first_line=o.stderr_first_line)
    if req.command == "rates":
        rec["stdout"] = o.stdout
    return rec


def run(args) -> int:
    if not (SRC / "qsdlab" / "cli.py").is_file():
        print(f"run.py: qsdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    context = run_context()
    measure_setup(1)  # writes the bytecode cache
    setup_samples = measure_setup()
    from qsdlab import cli

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        def outdir_of(name: str) -> str:
            return str(run_dir / "out" / name)

        workload = workloads.WORKLOADS[args.workload](args.seed, str(run_dir), outdir_of)
        requests = workload.requests
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(cli, workload, outdir_of, tracer)
        warm_wall, _ = runner.warm_up()
        probe_outcomes = {}
        for i, probe in enumerate(workload.probes):
            probe_outcomes[probe.name] = runner.execute(probe, i)
            runner.check(probe, probe_outcomes[probe.name], compare_bytes=False)
        passes = timed_passes(runner, requests, tracer, args.seconds, warm_wall)
        setup_samples += measure_setup()

        attempted = sum(len(p.outcomes) for p in passes)
        failed = sum(not o.ok for p in passes for o in p.outcomes.values())
        plain = [p for p in passes if not p.traced]
        commands = sorted({r.command for r in requests})
        metrics = {
            "setup_s": statistics.median(setup_samples),
            # the mean, not the median: on a shared host the speed can switch
            # between two levels for seconds to minutes, and the median of a
            # run's passes then jumps between them where the mean moves smoothly
            "wall_s": statistics.fmean(p.wall for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{f"{c}_s": statistics.fmean(sum(p.outcomes[r.name].seconds for r in requests if r.command == c)
                                           for p in plain) for c in commands},
            "fail_frac": failed / attempted,
            **workload.summarize({**passes[-1].outcomes, **probe_outcomes}),
        }
        units = {**END_TO_END, **EXTRA_UNITS, **{f"{c}_s": "s" for c in commands}}
        if args.trace:
            traced = [p for p in passes if p.traced]
            layer = {key: statistics.median(p.layers[key] for p in traced) for key in traced[0].layers}
            layer["trace_overhead_frac"] = statistics.fmean(p.wall for p in traced) / metrics["wall_s"] - 1.0
            final = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            final = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}

        print(f"qsdlab benchmark  workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("context  " + "  ".join(f"{k}={v}" for k, v in context.items() if k != "blas_thread_env"))
        print(f"passes   {len(passes)} timed ({len(plain)} untraced) after 1 warm-up of "
              f"{warm_wall:.3f} s; {len(requests)} requests per pass; closed loop, one client")
        for key, value in metrics.items():
            print(f"  {key:<32} {value:<24.10g} {units[key]}")
        for key, unit in PER_LAYER.items() if args.trace else ():
            print(f"  {key:<32} {layer[key]:<24.10g} {unit}")
        for name, o in probe_outcomes.items():
            print(f"probe    {name}: exit {o.exit_code}; {o.error or 'ok'}")
        for name, o in [(n, o) for p in passes for n, o in p.outcomes.items() if not o.ok][:20]:
            print(f"FAILED   {name}: {o.error}")

        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "context": context,
            "setup_samples_s": setup_samples,
            "warm_up_wall_s": warm_wall,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "per_layer": final if args.trace else None,
            "argv": {r.name: r.argv for r in requests + workload.probes},
            "passes": [{"traced": p.traced, "wall_s": p.wall, "layers": p.layers,
                        "requests": [_outcome_record(r, p.outcomes[r.name]) for r in requests]} for p in passes],
            "probes": [_outcome_record(r, probe_outcomes[r.name]) for r in workload.probes],
        }
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
        if args.trace:
            spans = [{"pass": i, **s} for i, p in enumerate(passes) if p.traced for s in p.spans]
            stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")
        print(f"results  {stem.relative_to(ROOT)}.json")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectral", "flow", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
