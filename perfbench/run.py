"""Run one benchmark workload against the `lota` sources in this checkout.

    python3 perfbench/run.py --workload sparse-sweep --seed 1 --seconds 20 --trace 0

Prints a readable summary and an environment record, then, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics. Exits 1
without a result when `lota` cannot be imported from ./src or when
LOTA_THREADS is set.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_lota():
    """Import `lota` from ./src of this checkout, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lota
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lota from {src}: {exc}")
    if src.resolve() not in Path(lota.__file__).resolve().parents:
        raise SystemExit(f"perfbench: lota was imported from {lota.__file__}, not {src}")
    return lota


def _start_seconds(runs: int = 5) -> float:
    """Median time for a fresh interpreter to start and import `lota.cli`.

    Measured in separate processes, each waited for, because an import
    can be timed only once per process and varies from one process to
    the next.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lota.cli"], env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "LOTA_THREADS": os.environ.get("LOTA_THREADS"),
        "git_commit": _git_commit(),
    }


def _metric_specs(section: str) -> dict[str, str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[section]}


def _p50_ms(values: list[float]) -> float | None:
    return 1e3 * statistics.median(values) if values else None


def main(argv=None) -> int:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Ledger

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if os.environ.get("LOTA_THREADS"):
        raise SystemExit("perfbench: LOTA_THREADS must be unset")

    ledger = Ledger()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, ledger, args.tiny)
    try:
        # set-up: interpreter start and import, then the workload's own
        # set-up, each the median of several tries
        start_s = _start_seconds()
        setups = []
        for _ in range(3):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = start_s + statistics.median(setups)

        # closed loop; with --trace 1, odd rounds are traced and even
        # rounds are not, which gives the tracing overhead. Before each
        # round and after the last, untraced, the reference kernel gives
        # the machine's speed at the time.
        tracer = Tracer()
        results, traced, refs = [], [], []
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline or (args.trace and r < 2):
            refs.append(workload.reference())
            is_traced = bool(args.trace) and r % 2 == 1
            if is_traced:
                tracer.install()
                workload.tracer = tracer
            try:
                results.append(workload.round(r))
            finally:
                tracer.uninstall()
                workload.tracer = None
            traced.append(is_traced)
            r += 1
        refs.append(workload.reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while other runs use it
            workdir.parent.rmdir()

    round_s = [ledger.round_seconds(i) for i in range(r)]
    ok_rounds = [s for s in round_s if s is not None]
    # each complete round over the mean of the reference runs just before
    # and after it: the machine's speed drifts by more than the bound from
    # one minute to the next, and the reference kernel drifts with it
    relative = [s / ((refs[i] + refs[i + 1]) / 2) for i, s in enumerate(round_s)
                if s is not None]
    attempted = len(ledger.ops)
    report = {
        "setup_s": (setup_s, "s"),
        "round_rel": (statistics.median(relative), "ratio") if relative else None,
        "round_p50_s": (statistics.median(ok_rounds), "s") if ok_rounds else None,
        "round_min_s": (min(ok_rounds), "s") if ok_rounds else None,
        "ref_p50_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - ledger.failed / attempted, "frac"),
    }
    if args.trace:
        plain = [s for s, t in zip(round_s, traced) if s is not None and not t]
        with_trace = [s for s, t in zip(round_s, traced) if s is not None and t]
        overhead = min(with_trace) / min(plain) - 1.0 if plain and with_trace else 0.0
        n_traced = sum(traced)
        layers = tracer.layer_metrics(n_traced, sum(with_trace) or 1.0, overhead)
        wanted = _metric_specs("per_layer")
        metrics = {k: v for k, v in layers.items() if k in wanted}
    else:
        wanted = _metric_specs("end_to_end")
        metrics = {k: v for k, v in report.items() if k in wanted and v is not None}

    # readable summary: every end-to-end quantity, including those that
    # are not bounded metrics (they are not defined on every workload)
    kinds = sorted({op.kind for op in ledger.ops})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={r} ({len(ok_rounds)} complete)")
    rows = [(k, v) for k, v in report.items() if v is not None]
    for kind in kinds:
        done = ledger.latencies(kind)
        tried = sum(op.kind == kind for op in ledger.ops)
        p50 = _p50_ms(done)
        if p50 is not None:
            rows.append((f"{kind}_ms_p50", (p50, f"ms  ({len(done)} of {tried} ok)")))
        else:
            rows.append((f"{kind}_ms_p50", ("absent", f"    (0 of {tried} ok)")))
    if "utility" in results[0]:
        rows.append(("utility", (results[0]["utility"], "round 0; higher is better")))
    rows.append(("fail_frac", (ledger.failed / attempted, "frac")))
    for name, (value, unit) in rows:
        print(f"  {name:<20} {value:<24} {unit}")
    for failure, count in sorted(ledger.failure_types().items()):
        print(f"  failed x{count}: {failure}")
    if tracer.frozen_violations:
        print(f"  frozen coordinates moved: {tracer.frozen_violations[:5]}")
    first = results[0].get("sha256") if results else None
    print(json.dumps({"outputs_sha256_round0": first, "env": environment(),
                      "round_s": round_s, "ref_s": refs}))

    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _import_lota()
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
