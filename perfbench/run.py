"""backsolve benchmark: one workload per call, each run in a fresh process.

    python3 perfbench/run.py --workload conv-d2 --seed 7 --seconds 30 --trace 0

Run from the root of a backsolve checkout. The workload's config is written
with the given seed and run through the public API (`backsolve.parse_config`,
then `backsolve.run`) by `perfbench/child.py`, one child process at a time,
with the BLAS pools capped through the child's environment. Every run's CSV
is checked; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates untraced and traced runs (the traced child wraps the layer entry
points, see tracer.py) and reports the per-layer metrics, plus a once-off
run at the other BLAS thread cap whose CSV differences are printed.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402


class Workload(NamedTuple):
    config: str  # config text without the seed line
    threads: int  # BLAS thread cap of the measured runs
    other_threads: int | None  # cap of the once-off determinism run
    levels: tuple = ()  # k values the CSV must hold, for convergence


def _convergence(d: int, levels: tuple) -> str:
    return (
        "experiment = convergence\nT = 1.0\nsolution = cubic\n"
        f"epsilon_strategy = plain\nd = {d}\n"
        f"k_range = {', '.join(map(str, levels))}\n"
    )


WORKLOADS = {
    "conv-d2": Workload(_convergence(2, (4, 5)), 2, 1, (4, 5)),
    "conv-d1": Workload(_convergence(1, (6, 7, 8)), 1, 2, (6, 7, 8)),
    "oracle": Workload(
        "experiment = stability-oracle\nd = 2\nT = 1.0\nk_range = 1\n", 1, None
    ),
}

SETUP_PROBES = 5  # set-up-only children per untraced run, after one warm-up
MIN_RUNS = 3  # full runs per untraced measurement, whatever --seconds says
HARD_LIMIT_S = 165.0  # the whole call must end well inside 180 s

# single-mode oracle rows: |value - reference| <= tolerance (the README
# identities, with the tolerances of tests/test_acceptance.py)
ORACLE_IDENTITIES = {
    "log_convexity_single_mode": 1e-12,
    "smoothing_single_mode": 1e-12,
    "hbeta_single_mode_ratio": 1e-12,
}
# suite rows: value <= reference + tolerance
ORACLE_BOUNDS = {"log_convexity_suite": 1e-10, "smoothing_suite": 0.0}
DECAY_FIT_REL_TOL = 0.2

# per-layer metric -> (unit, kind, sources). Times are self times of
# the named spans summed over the run; counts are calls.
LAYER_METRICS = {
    "mesh.build_s": ("s", "self", ["mesh.build"]),
    "mesh.builds": ("count", "calls", ["mesh.build"]),
    "assembly.load_f_s": ("s", "self", ["assembly.load_f"]),
    "assembly.space_load_calls": ("count", "count", ["assembly.space_load"]),
    "assembly.fe_eval_calls": ("count", "count", ["assembly.fe_eval"]),
    "operators.assemble_B_s": ("s", "self", ["operators.assemble_B"]),
    "operators.kron_apply_s": ("s", "self", ["operators.kron_apply"]),
    "operators.kron_applies": ("count", "calls", ["operators.kron_apply"]),
    "precond.riesz_x_setup_s": ("s", "self", ["precond.make_G_X"]),
    "precond.riesz_y_setup_s": ("s", "self", ["precond.make_G_Y"]),
    "precond.riesz_x_apply_s": ("s", "self", ["precond.riesz_x_apply"]),
    "precond.riesz_y_apply_s": ("s", "self", ["precond.riesz_y_apply"]),
    "precond.riesz_x_applies": ("count", "calls", ["precond.riesz_x_apply"]),
    "precond.riesz_y_applies": ("count", "calls", ["precond.riesz_y_apply"]),
    "solver.pcg_self_s": ("s", "self", ["solver.pcg"]),
    "solver.pcg_iterations": ("count", "iterations", ["solver.pcg"]),
    "solver.normal_applies": ("count", "calls", ["solver.normal_apply"]),
    "solver.normal_apply_self_s": ("s", "self", ["solver.normal_apply"]),
    "solver.converged_share": ("1", "converged", ["solver.pcg"]),
    "solver.threshold_s": (
        "s", "self", ["solver.interpolation_gap", "solver.nodal_interpolant"]
    ),
    "solver.error_report_s": ("s", "self", ["solver.error_report"]),
    "solver.build_system_self_s": ("s", "self", ["solver.build_system"]),
    "solver.solve_self_s": ("s", "self", ["solver.solve"]),
    "oracle.log_convexity_s": ("s", "self", ["oracle.log_convexity"]),
    "oracle.smoothing_s": ("s", "self", ["oracle.smoothing"]),
    "oracle.hbeta_s": ("s", "self", ["oracle.hbeta"]),
    "oracle.decay_fit_s": ("s", "self", ["oracle.decay_fit"]),
    "oracle.heat_evolve_calls": ("count", "count", ["oracle.heat_evolve"]),
    "cli.csv_write_s": ("s", "self", ["cli.write_csv"]),
    "config.parse_s": ("s", "self", ["config.parse"]),
}
# spans whose names are made from the instance (see tracer._riesz_name)
_PATCHED_AS = {
    "precond.riesz_x_apply": "precond.riesz_apply",
    "precond.riesz_y_apply": "precond.riesz_apply",
}


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_bytes().splitlines())
        for p in sorted((root / "src" / "backsolve").rglob("*.py"))
    )


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        spec = WORKLOADS[workload]
        self.threads, self.other_threads = spec.threads, spec.other_threads
        self.levels = spec.levels
        self.config_text = spec.config + f"seed = {seed}\n"
        self.seconds = seconds
        self.t_start = time.perf_counter()
        self.work = root / ".perfbench-work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "workload.cfg"
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self.attempted = 0
        self.failures = []
        self.reference_csv = {}  # thread cap -> bytes of the first good CSV
        self.n_child = 0

    # ------------------------------------------------------------ children

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def child(self, threads: int, full: bool, trace: bool = False):
        """Run one child; returns its result dict, or None if it failed."""
        self.n_child += 1
        tag = f"{self.n_child:03d}"
        result_path = self.work / f"result-{tag}.json"
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--config",
            str(self.config_path),
            "--result",
            str(result_path),
        ]
        csv_path = self.work / f"run-{tag}.csv"
        if full:
            cmd += ["--csv", str(csv_path)]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ)
        paths = (str(self.root / "src"), env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env[var] = str(threads)
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd,
                env=env,
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
            problem = None
        except subprocess.TimeoutExpired:
            problem = f"timed out after {timeout:.0f} s"
        self.attempted += 1
        if problem is None and proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            problem = f"exited {proc.returncode}: {tail[0]}"
        if problem is None:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if full:
                result["csv"] = csv_path.read_bytes()
                problem = self.check_csv(result["csv"], threads)
        if problem is not None:
            self.failures.append(f"child {tag}: {problem}")
            return None
        return result

    # -------------------------------------------------------------- checks

    def check_csv(self, data: bytes, threads: int) -> str | None:
        header, rows = parse_csv(data)
        for row in rows:
            for name, cell in row.items():
                if isinstance(cell, float) and not math.isfinite(cell):
                    return f"non-finite cell {name}={cell!r}"
        if self.workload == "oracle":
            problem = check_oracle(rows)
        else:
            problem = check_convergence(header, rows, self.levels)
        if problem:
            return problem
        ref = self.reference_csv.setdefault(threads, data)
        if data != ref:
            return f"CSV differs from the first run at {threads} BLAS thread(s)"
        return None


def parse_csv(data: bytes):
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    rows = []
    for line in reader:
        row = {}
        for name, cell in zip(header, line):
            try:
                row[name] = float(cell)
            except ValueError:
                row[name] = cell
        rows.append(row)
    return header, rows


def check_oracle(rows) -> str | None:
    seen = set()
    for row in rows:
        check, value, ref = row["check"], row["value"], row["reference"]
        seen.add(check)
        if check in ORACLE_IDENTITIES:
            if abs(value - ref) > ORACLE_IDENTITIES[check]:
                return f"{check}: |{value!r} - {ref!r}| breaks the identity"
        elif check in ORACLE_BOUNDS:
            if value > ref + ORACLE_BOUNDS[check]:
                return f"{check}: {value!r} exceeds its bound {ref!r}"
        elif check == "decay_rate_fit":
            if abs(value - ref) > DECAY_FIT_REL_TOL * abs(ref):
                return f"decay_rate_fit beta={row['beta']}: slope {value!r} vs {ref!r}"
    missing = set(ORACLE_IDENTITIES) | set(ORACLE_BOUNDS) | {"decay_rate_fit"}
    missing -= seen
    return f"oracle rows missing: {sorted(missing)}" if missing else None


def check_convergence(header, rows, levels) -> str | None:
    got = [row.get("k") for row in rows]
    if got != [float(k) for k in levels]:
        return f"levels {got} != {list(levels)}"
    for col in ("err_l2h1", "err_slice@0.25"):
        if col not in header:
            return f"column {col} missing"
    return None


def accuracy(workload: str, data: bytes) -> dict:
    """Accuracy figures of one checked CSV (identical across good runs)."""
    _, rows = parse_csv(data)
    if workload == "oracle":
        dev = max(
            abs(r["value"] - r["reference"])
            for r in rows
            if r["check"] in ORACLE_IDENTITIES
        )
        fit = max(
            abs(r["value"] - r["reference"]) / abs(r["reference"])
            for r in rows
            if r["check"] == "decay_rate_fit"
        )
        return {"oracle_ref_dev": dev, "answer_err": fit}
    finest = rows[-1]
    return {
        "err_l2h1": finest["err_l2h1"],
        "err_slice_early": finest["err_slice@0.25"],
        "answer_err": finest["err_l2h1"],
    }


def column_diffs(a: bytes, b: bytes) -> dict:
    """Largest relative difference per CSV column between two results."""
    _, rows_a = parse_csv(a)
    _, rows_b = parse_csv(b)
    out = {}
    for ra, rb in zip(rows_a, rows_b):
        for name, va in ra.items():
            vb = rb.get(name)
            if isinstance(va, float) and isinstance(vb, float):
                scale = max(abs(va), abs(vb))
                rel = abs(va - vb) / scale if scale > 0.0 else 0.0
                out[name] = max(out.get(name, 0.0), rel)
    return out


def describe(values) -> str:
    values = sorted(values)
    n = len(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f" q1={q1:.6g} q3={q3:.6g}"
    else:
        spread = ""
    return (
        f"median={statistics.median(values):.6g}{spread} "
        f"min={values[0]:.6g} max={values[-1]:.6g} n={n}"
    )


def layer_metrics(trace: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced run; None marks an unmeasured one."""
    per_name = self_times(trace["spans"])
    counts = trace["counts"]
    reports = trace["pcg_reports"]
    unmeasured = trace["unmeasured"]
    out = {}
    for metric, (_, kind, sources) in LAYER_METRICS.items():
        patched = {_PATCHED_AS.get(s, s) for s in sources}
        if kind in ("iterations", "converged"):
            patched.add("solver.pcg_report")
        if patched & set(unmeasured):
            out[metric] = None
        elif kind == "self":
            out[metric] = sum(per_name.get(s, (0.0, 0.0, 0))[0] for s in sources)
        elif kind == "calls":
            out[metric] = sum(per_name.get(s, (0.0, 0.0, 0))[2] for s in sources)
        elif kind == "count":
            out[metric] = sum(counts.get(s, 0) for s in sources)
        elif kind == "iterations":
            out[metric] = sum(it for it, _ in reports)
        elif reports:  # converged share, base: the number of pcg calls
            out[metric] = sum(ok for _, ok in reports) / len(reports)
        else:
            out[metric] = 0.0
    accounted = sum(
        value
        for metric, value in out.items()
        if value is not None
        and LAYER_METRICS[metric][1] == "self"
        and metric != "config.parse_s"  # set-up, outside backsolve.run
    )
    out["trace.remainder_s"] = run_s - accounted
    return out, per_name


def run_untraced(bench: Bench) -> dict:
    setups, runs, rss = [], [], []
    for _ in range(SETUP_PROBES):
        res = bench.child(bench.threads, full=False)
        if res:
            setups.append(res["setup_s"])
    good = []
    durations = []
    while True:
        t0 = time.perf_counter()
        res = bench.child(bench.threads, full=True)
        durations.append(time.perf_counter() - t0)
        if res:
            good.append(res)
            setups.append(res["setup_s"])
            runs.append(res["run_s"])
            rss.append(res["peak_rss_mb"])
        if stop(bench, durations, MIN_RUNS):
            break
    print(f"workload {bench.workload}: BLAS threads {bench.threads}, untraced")
    print(f"  run_s [s]: {describe(runs)}" if runs else "  run_s: no good run")
    print(f"  setup_s [s]: {describe(setups)}" if setups else "  setup_s: none")
    print(f"  peak_rss_mb [MB]: {describe(rss)}" if rss else "  peak_rss_mb: none")
    metrics = {}
    if not good:
        return metrics
    acc = accuracy(bench.workload, good[0]["csv"])
    for name in ("err_l2h1", "err_slice_early", "oracle_ref_dev"):
        if name in acc:
            print(f"  {name} [1]: {acc[name]!r} (same CSV in all {len(good)} runs)")
        else:
            print(f"  {name} [1]: n/a on this workload")
    report_baseline(bench, good[0]["csv"])
    metrics["run_s"] = {"value": statistics.median(runs), "unit": "s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    metrics["answer_err"] = {"value": acc["answer_err"], "unit": "1"}
    return metrics


def stop(bench: Bench, durations, min_runs: int, reserve: float = 0.0) -> bool:
    """True when the next round would overrun --seconds (after min_runs).

    reserve is time still owed after the loop, such as the other-cap run.
    """
    if bench.elapsed() + max(durations) + reserve > HARD_LIMIT_S - 10.0:
        return True
    if len(durations) < min_runs:
        return False
    ahead = statistics.median(durations) + reserve
    return bench.elapsed() + ahead > bench.seconds


def report_baseline(bench: Bench, data: bytes) -> None:
    """Compare with the CSV the seed commit wrote (informational)."""
    path = HERE / "baseline" / f"{bench.workload}.csv"
    if not path.exists():
        return
    base = path.read_bytes()
    if bench.workload == "oracle":
        # the suite rows depend on the seed; compare the seed-free rows
        keep = tuple(ORACLE_IDENTITIES) + ("decay_rate_fit",)
        base, data = (
            b"\n".join(l for l in d.splitlines() if l.decode().startswith(keep))
            for d in (base, data)
        )
    if base == data:
        print(f"  baseline {path.name}: byte-identical")
        return
    worst = column_diffs(base, data)
    shown = ", ".join(f"{k}={v:.3g}" for k, v in worst.items() if v)
    print(f"  baseline {path.name}: differs; max rel diff per column: {shown}")


def run_traced(bench: Bench) -> dict:
    plain, traced, durations = [], [], []
    while True:
        t0 = time.perf_counter()
        p = bench.child(bench.threads, full=True)
        t = bench.child(bench.threads, full=True, trace=True)
        durations.append(time.perf_counter() - t0)
        if p:
            plain.append(p)
        if t:
            traced.append(t)
        # one more untraced run follows at the other thread cap
        owed = statistics.median(durations) / 2 if bench.other_threads else 0.0
        if stop(bench, durations, 1, owed):
            break
    print(f"workload {bench.workload}: BLAS threads {bench.threads}, traced")
    if not (plain and traced):
        return {}
    layers = [layer_metrics(r["trace"], r["run_s"]) for r in traced]
    unmeasured = traced[0]["trace"]["unmeasured"]
    for name, why in sorted(unmeasured.items()):
        print(f"  unmeasured: {name} ({why})")

    plain_run = statistics.median(r["run_s"] for r in plain)
    traced_run = statistics.median(r["run_s"] for r in traced)
    metrics = {}
    for name in list(LAYER_METRICS) + ["trace.remainder_s"]:
        vals = [values[name] for values, _ in layers]
        unit = LAYER_METRICS[name][0] if name in LAYER_METRICS else "s"
        value = None if None in vals else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.overhead_share"] = {
        "value": traced_run / plain_run - 1.0,
        "unit": "1",
    }
    metrics["src_lines"] = {"value": src_lines(bench.root), "unit": "lines"}

    print(f"  solver.solves (pcg calls, base of converged_share): "
          f"{len(traced[-1]['trace']['pcg_reports'])}")
    print(f"  untraced run_s [s]: {describe([r['run_s'] for r in plain])}")
    print(f"  traced run_s [s]: {describe([r['run_s'] for r in traced])}")
    last_values, per_name = layers[-1]
    print("  spans of the last traced run (self s, total s, calls):")
    for name, (self_s, total_s, calls) in sorted(
        per_name.items(), key=lambda kv: -kv[1][0]
    ):
        print(f"    {name:28s} {self_s:9.4f} {total_s:9.4f} {calls:7d}")
    last_run = traced[-1]["run_s"]
    remainder = last_values["trace.remainder_s"]
    print(
        f"  named layers' self time: {last_run - remainder:.4f} s of traced "
        f"run_s {last_run:.4f} s; remainder {remainder:.4f} s"
    )
    for name, m in metrics.items():
        shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} [{m['unit']}]: {shown}")

    if bench.other_threads is not None:
        other = bench.child(bench.other_threads, full=True)
        if other:
            diffs = column_diffs(plain[0]["csv"], other["csv"])
            same = plain[0]["csv"] == other["csv"]
            print(
                f"  thread-cap determinism, {bench.threads} vs "
                f"{bench.other_threads} BLAS threads: "
                + ("byte-identical" if same else "CSVs differ (reported, not gated)")
            )
            for name, rel in diffs.items():
                print(f"    max rel diff {name}: {rel:.3g}")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "backsolve" / "__init__.py").is_file():
        print(f"error: no src/backsolve under {root}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)

    bench = Bench(root, args.workload, args.seed, args.seconds)
    print(f"src_lines: {src_lines(root)}")
    # warm-up: bytecode compilation and the file cache, not measured
    bench.child(bench.threads, full=False)
    metrics = run_traced(bench) if args.trace else run_untraced(bench)
    for msg in bench.failures:
        print(f"  FAILED: {msg}")
    print(f"  failed/attempted runs: {len(bench.failures)}/{bench.attempted}")
    correct = not bench.failures and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": len(bench.failures),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
