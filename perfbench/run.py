#!/usr/bin/env python3
"""Benchmark of the spdcgauss library and its ``spdc-gauss`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root; the library is imported from ``src/``.
One process acts as a single closed-loop client: it sends the next
operation only when the previous one has finished, and CLI children run
one at a time with one BLAS/OpenMP thread.  Every operation is checked
against the independent oracles in ``oracle.py``.

Workloads (see BENCHMARK.json for why each one is there):

* ``design_sweep``: seeded BBO source configurations, each run in-process
  as ``config.config_from_dict`` then ``rates.experiment_comparison``.
* ``figures``: ``spdc-gauss figures`` as a subprocess.
* ``cli_oneshot``: a seeded mix of ``rate``, ``compare-experiment``,
  ``spectrum``, ``sweep-gamma`` and rejected requests, one subprocess each.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` it holds per-function span metrics: each block of
inputs runs untraced and then again traced, and the difference in busy
time is the tracing overhead.  The line before the last holds
provenance, input properties and per-kind outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(SINGLE_THREAD)  # before numpy loads its BLAS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIPPED_CONFIG = os.path.join(SRC, "spdcgauss", "data", "bbo_branciard.json")

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

SETUP_SPAWNS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# what checking a malformed output raises; such an output fails, the run goes on
MALFORMED = (KeyError, IndexError, ValueError, TypeError)

# Figure datasets as ``spdc-gauss figures`` documents them.
FIG_OVERLAP_XIS = (0.0, 0.5, 1.0, 2.0, 4.0)
FIG_OVERLAP = (-15.0, 15.0, 2001)
FIG_XI = (0.0, 5.0, 251)
FIG_GAMMA = (0.1, 3.0, 581)

SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import spdcgauss
t1 = time.perf_counter()
spdcgauss.load_material_db()
spdcgauss.load_config(spdcgauss.builtin_config_path())
print(json.dumps({"import_s": t1 - t0}))
"""


def child_env(**extra):
    return dict(os.environ, PYTHONPATH=SRC, **SINGLE_THREAD, **extra)


def spawn(argv, stdout_path, stderr_path, env):
    """Run one child to completion; returns (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Log:
    """Outcome of every operation in one pass."""

    def __init__(self):
        self.latencies = []
        self.kinds = {}     # kind -> {"attempted", "ok", "latencies"}
        self.failures = []  # (kind, status, message)
        self.wrong = 0      # failures where an output disagreed with its oracle
        self.peak_rss_mb = 0.0

    def record(self, kind, latency, status, errors=()):
        self.latencies.append(latency)
        k = self.kinds.setdefault(kind, {"attempted": 0, "ok": 0, "latencies": []})
        k["attempted"] += 1
        k["latencies"].append(latency)
        if status == "ok":
            k["ok"] += 1
            return
        self.wrong += status == "wrong"
        self.failures.append((kind, status, "; ".join(errors)[:400]))

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


def ok_share(log: Log, weights) -> float:
    """Share of operations that passed, each request kind weighted by its
    share of the workload's mix, so the figure does not move with how many
    of a rare kind a run happened to draw."""
    total = sum(weights.get(k, 1.0) for k in log.kinds)
    return sum(weights.get(k, 1.0) * v["ok"] / v["attempted"]
               for k, v in log.kinds.items()) / total


def tail(latencies):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    v = sorted(latencies)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ------------------------------------------------------------------ workloads


class DesignSweep:
    """In-process library calls on seeded source configurations."""

    weights = {}
    min_blocks = 1

    def __init__(self, seed, workdir):
        sys.path.insert(0, SRC)
        from spdcgauss import config, materials, rates
        self.config, self.rates = config, rates
        self.db = materials.load_material_db()
        self.blocks = inputs.design_blocks(seed)
        self.tracer = Tracer()
        self.dphi = [math.inf, -math.inf]
        self.run_one(oracle.shipped_config(), Log())  # warm-up, not reported

    def run_one(self, raw, log):
        t0 = time.perf_counter()
        try:
            cfg = self.config.config_from_dict(raw, self.db)
            rows, report = self.rates.experiment_comparison(cfg)
        except Exception as exc:  # any exception is a failed operation, never an abort
            log.record("design", time.perf_counter() - t0, "error",
                       [f"{type(exc).__name__}: {exc}"])
            return
        latency = time.perf_counter() - t0
        try:
            errors = self.check(raw, rows, report)
        except MALFORMED as exc:
            errors = [f"malformed result: {type(exc).__name__}: {exc}"]
        log.record("design", latency, "wrong" if errors else "ok", errors)

    def check(self, raw, rows, report):
        src = oracle.Source(raw)
        errors = []
        oracle.check_comparison(errors, src, {r.quantity: r.model for r in rows})
        samples = np.asarray(report.spectral_samples, dtype=float)
        oracle.check_phi_samples(errors, src, samples[:, 0], samples[:, 1], "spectral density")
        if src.collinear:
            oracle.check_scalar(errors, "R_T_thin", report.R_T_thin, src.thin_rate(),
                                rtol=oracle.rate_rtol(math.pi))
        ends, _ = src.phi_from_density(samples[[0, -1], 0], samples[[0, -1], 1])
        self.dphi = [min(self.dphi[0], *ends), max(self.dphi[1], *ends)]
        return errors

    def run_block(self, block, log):
        for raw in block:
            self.run_one(raw, log)
        log.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def set_tracing(self, on):
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def trace_metrics(self):
        return self.tracer.metrics()

    def properties(self, blocks):
        xi = [oracle.Source(raw).xi for block in blocks for raw in block]
        return {"xi": inputs.quantiles(xi),
                "collinear_share": sum(x == 0.0 for x in xi) / len(xi),
                "dphi_span": self.dphi,
                "bypass_S_share": 0.0}


class CliWorkload:
    """CLI requests, one subprocess each, through ``cli_child.py``."""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.tracing = False
        self.trace_sum = {}
        self.count = 0

    def set_tracing(self, on):
        self.tracing = on

    def trace_metrics(self):
        return self.trace_sum

    def run_request(self, argv, log):
        """Spawn one CLI request; returns (out_dir, latency, exit code, stderr text)."""
        self.count += 1
        out = os.path.join(self.workdir, f"op{self.count}")
        os.makedirs(out)
        argv = [SHIPPED_CONFIG if a == "<shipped>" else a for a in argv]
        extra = {}
        trace_path = os.path.join(self.workdir, f"trace{self.count}.json")
        if self.tracing:
            extra["PERFBENCH_TRACE_OUT"] = trace_path
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py")] + argv + ["--out", out]
        latency, code, rss = spawn(cmd, os.path.join(self.workdir, "stdout"),
                                   os.path.join(self.workdir, "stderr"), child_env(**extra))
        log.peak_rss_mb = max(log.peak_rss_mb, rss)
        with open(os.path.join(self.workdir, "stderr"), encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if self.tracing and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                merge(self.trace_sum, json.load(fh))
            os.remove(trace_path)
        return out, latency, code, stderr


def error_lines(stderr):
    """stderr lines other than the interpreter's runpy RuntimeWarning."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    return [ln for ln in lines if "RuntimeWarning" not in ln and not ln.startswith("  warn(")]


def success_status(code, stderr, check):
    """Status of a request that should succeed; ``check`` returns oracle errors."""
    if code != 0:
        lines = error_lines(stderr)
        return "error", [f"exit {code}: {lines[-1] if lines else ''}"]
    try:
        errors = check()
    except (OSError, *MALFORMED) as exc:
        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return ("wrong" if errors else "ok"), errors


ERROR_CODES = {"PARSE": 2, "UNKNOWN_MATERIAL": 2, "VALIDATION": 2, "NUMERICAL": 3, "IO": 4}


def reject_status(code, stderr, accepted):
    """A refused request must exit with an accepted code and print exactly
    one ``error CODE: message`` line."""
    lines = error_lines(stderr)
    if code == 0:
        return "wrong", ["invalid input accepted (exit 0)"]
    if code not in (2, 3, 4) or len(lines) != 1 or not lines[0].startswith("error "):
        return "error", [f"contract break: exit {code}, stderr ends {lines[-1:]!r}"]
    label = lines[0][6:].split(":", 1)[0]
    if ERROR_CODES.get(label) != code or code not in accepted:
        return "wrong", [f"exit {code} with {lines[0]!r}, expected exit in {accepted}"]
    return "ok", []


class Figures(CliWorkload):
    weights = {}
    min_blocks = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.blocks = iter(lambda: [["figures"]], None)

    def run_block(self, block, log):
        for argv in block:
            out, latency, code, stderr = self.run_request(argv, log)
            status, errors = success_status(code, stderr, lambda: self.check(out))
            log.record("figures", latency, status, errors)
            shutil.rmtree(out)

    @staticmethod
    def check(out):
        errors = []
        rows = oracle.float_rows(os.path.join(out, "fig_longitudinal_overlap.csv"))
        lo, hi, pts = FIG_OVERLAP
        grid = [(x, d) for x in FIG_OVERLAP_XIS for d in np.linspace(lo, hi, pts)]
        if [(r[0], r[1]) for r in rows] != grid:
            errors.append("fig_longitudinal_overlap.csv: (xi, delta_phi) grid differs")
        oracle.check_overlap_rows(errors, rows, "fig_longitudinal_overlap.csv")
        rows = oracle.float_rows(os.path.join(out, "fig_spectral_integral.csv"))
        if [r[0] for r in rows] != np.linspace(*FIG_XI).tolist():
            errors.append("fig_spectral_integral.csv: xi grid differs")
        oracle.check_s_rows(errors, rows, "fig_spectral_integral.csv")
        oracle.check_gamma_rows(errors, oracle.float_rows(os.path.join(out, "fig_waist_ratio.csv")),
                                "fig_waist_ratio.csv", *FIG_GAMMA)
        return errors

    def properties(self, blocks):
        return {"xi": {"grid": list(FIG_XI), "overlap_xis": list(FIG_OVERLAP_XIS)},
                "collinear_share": 1 / FIG_XI[2],
                "dphi_span": list(FIG_OVERLAP[:2]),
                "bypass_S_share": 0.0}


class CliOneshot(CliWorkload):
    weights = inputs.KIND_WEIGHTS
    min_blocks = len(inputs.REJECTS)  # every rejected input at least once

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.blocks = inputs.cli_blocks(seed)
        self.shipped = oracle.shipped_config()

    def source(self, req):
        return oracle.Source(oracle.apply_overrides(self.shipped, req["overrides"]))

    def run_block(self, block, log):
        for req in block:
            kind = req["kind"]
            out, latency, code, stderr = self.run_request(req["argv"], log)
            if kind.startswith("reject:"):
                status, errors = reject_status(code, stderr, req["codes"])
            else:
                status, errors = success_status(code, stderr, lambda: self.check(req, out))
            log.record(kind, latency, status, errors)
            shutil.rmtree(out)

    def check(self, req, out):
        errors = []
        kind = req["kind"]
        if kind == "rate":
            src = self.source(req)
            vals = {q: v for q, v in oracle.read_csv(os.path.join(out, "rate_report.csv"))[1]}
            oracle.check_xi_s(errors, src, float(vals["Xi"]), float(vals["S"]))
            oracle.check_scalar(errors, "R_T", float(vals["R_T_pairs_per_s"]), src.rate(),
                                rtol=oracle.rate_rtol(src.S))
            if src.collinear:
                oracle.check_scalar(errors, "R_T_thin", float(vals["R_T_thin_pairs_per_s"]),
                                    src.thin_rate(), rtol=oracle.rate_rtol(math.pi))
            samples = np.asarray(oracle.float_rows(os.path.join(out, "rate_spectrum.csv")))
            oracle.check_phi_samples(errors, src, samples[:, 0], samples[:, 1], "rate_spectrum.csv")
        elif kind == "compare-experiment":
            _, rows = oracle.read_csv(os.path.join(out, "comparison.csv"))
            oracle.check_comparison(errors, self.source(req), {r[0]: float(r[1]) for r in rows})
        elif kind == "spectrum":
            rows = oracle.float_rows(os.path.join(out, "spectrum_overlap.csv"))
            grid = [(x, d) for x in req["xis"] for d in np.linspace(*req["dphi"], FIG_OVERLAP[2])]
            if [(r[0], r[1]) for r in rows] != grid:
                errors.append("spectrum_overlap.csv: (xi, delta_phi) grid differs from the request")
            oracle.check_overlap_rows(errors, rows, "spectrum_overlap.csv")
        elif kind == "sweep-gamma":
            oracle.check_gamma_rows(errors, oracle.float_rows(os.path.join(out, "sweep_gamma.csv")),
                                    "sweep_gamma.csv", *req["gamma"], req["points"])
        return errors

    def properties(self, blocks):
        reqs = [req for block in blocks for req in block]
        uses_s = [r for r in reqs if r["kind"] in ("rate", "compare-experiment")]
        xi = [self.source(r).xi for r in uses_s]
        spans = [r["dphi"] for r in reqs if r["kind"] == "spectrum"]
        return {"xi": inputs.quantiles(xi),
                "collinear_share": sum(x == 0.0 for x in xi) / len(xi),
                "spectrum_xi": inputs.quantiles([x for r in reqs if r["kind"] == "spectrum"
                                                 for x in r["xis"]]),
                "dphi_span": {"rate_spectrum": [-100.0, 100.0],
                              "spectrum_lo": inputs.quantiles([lo for lo, _ in spans]),
                              "spectrum_hi": inputs.quantiles([hi for _, hi in spans])},
                "bypass_S_share": 1.0 - len(uses_s) / len(reqs)}


WORKLOADS = {"design_sweep": DesignSweep, "figures": Figures, "cli_oneshot": CliOneshot}


# ------------------------------------------------------------------ driver


def measure_setup(workdir):
    """Median wall time of a fresh interpreter that imports spdcgauss and
    loads the material database and the shipped config, after one
    discarded spawn that fills the bytecode cache; also its import time."""
    walls, imports = [], []
    for i in range(SETUP_SPAWNS + 1):
        out, err = os.path.join(workdir, "setup.out"), os.path.join(workdir, "setup.err")
        wall, code, _ = spawn([sys.executable, "-c", SETUP_CODE], out, err, child_env())
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up child failed (exit {code}): {fh.read()[-500:]}")
        if i:
            walls.append(wall)
            with open(out, encoding="utf-8") as fh:
                imports.append(json.loads(fh.read().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_pass(work, budget_s, traced=None):
    """Closed loop over whole blocks until the untraced busy time reaches
    the budget.  With a ``traced`` log, each block is replayed traced right
    after its untraced run, so both see the same inputs and machine state."""
    log, done = Log(), []
    for block in work.blocks:
        work.run_block(block, log)
        if traced is not None:
            work.set_tracing(True)
            try:
                work.run_block(block, traced)
            finally:
                work.set_tracing(False)
        done.append(block)
        if log.busy_s >= budget_s and len(done) >= work.min_blocks:
            return log, done


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"git_sha": git_sha(), "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spdcgauss", "__init__.py")):
        print(f"error: no spdcgauss package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind normally: the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, import_s = measure_setup(workdir)
        work = WORKLOADS[args.workload](args.seed, workdir)
        traced = Log() if args.trace else None
        log, done = run_pass(work, args.seconds / 2 if args.trace else args.seconds, traced)
        details = {"provenance": provenance(args.seed), "workload": args.workload,
                   "inputs": work.properties(done),
                   "per_kind": {k: {"attempted": v["attempted"], "ok": v["ok"],
                                    "latency_p50_s": statistics.median(v["latencies"])}
                                for k, v in sorted(log.kinds.items())}}
        logs = [log] if traced is None else [log, traced]
        if traced is None:
            lat_tail, pct = tail(log.latencies)
            details["latency_tail"] = {"percentile": pct, "samples": log.attempted}
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (log.attempted / log.busy_s, "1/s"),
                "latency_p50_s": (statistics.median(log.latencies), "s"),
                "latency_tail_s": (lat_tail, "s"),
                "ok_share": (ok_share(log, work.weights), "ratio"),
                "peak_rss_mb": (log.peak_rss_mb, "MB"),
            }
        else:
            overhead = traced.busy_s - log.busy_s
            details["trace"] = {"untraced_busy_s": log.busy_s, "traced_busy_s": traced.busy_s,
                                "overhead_share": overhead / log.busy_s}
            per_layer = dict(work.trace_metrics(), import_s=import_s)
            per_layer["trace.overhead_s"] = overhead
            metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in per_layer.items()}
        details["failures"] = [list(f) for lg in logs for f in lg.failures][:20]
        print(json.dumps({"details": details}))
        print(json.dumps({
            "correct": all(lg.wrong == 0 for lg in logs),
            "attempted": sum(lg.attempted for lg in logs),
            "failed": sum(len(lg.failures) for lg in logs),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
