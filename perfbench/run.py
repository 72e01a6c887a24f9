"""charzero benchmark: exactness-checked passes over a fixed workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the ``src/charzero`` package next to this
directory.  A pass is one fresh interpreter (worker.py) that runs every job
of the workload in a seeded order, so the package's caches start cold as in
a CLI call.  The S seconds count from the start of the run, set-up included:
passes run one at a time until the next one, as long as the longest so far,
would end after S seconds; there is always at least one.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass of the same job
order and reports the per-layer metrics, including the tracing overhead.  Details of every run,
with the environment record, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 16
RUN_DEADLINE_S = 170  # every child is stopped before the run exceeds this

sys.path.insert(0, str(HERE))
from probe import NATIVE_EXPONENT, REFERENCE_PROBE_S  # noqa: E402
from tracer import PER_LAYER_METRICS, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from worker import ADDRESS_SPACE_LIMIT  # noqa: E402


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"  # single-threaded passes: no BLAS thread pools
    return env


def spawn_worker(extra: list[str], deadline: float) -> tuple[float, str, str, int]:
    """Run worker.py to completion; returns (setup seconds, stdout, stderr,
    exit code).  A worker still running at `deadline` is killed and reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=str(ROOT))
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nworker killed after {time.monotonic() - t0:.1f} s"
    setup = None
    for line in out.splitlines():
        if line.startswith("READY "):
            setup = float(line.split()[1]) - t0
    return setup, out, err, proc.returncode


def _run_pass(workload, seed, index, deadline, trace_file=None) -> dict:
    extra = ["--workload", workload, "--seed", str(seed), "--pass-index", str(index)]
    if trace_file is not None:
        extra += ["--trace", str(trace_file)]
    setup, out, err, code = spawn_worker(extra, deadline)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print(f"pass {index}: worker failed (exit {code}): {err.strip()[-500:]}", file=sys.stderr)
        return {"setup_s": setup, "wall_s": None,
                "jobs": [{"name": j.name, "problems": ["worker failed"]} for j in WORKLOADS[workload]]}
    report = json.loads(lines[-1])
    report["setup_s"] = setup
    return report


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1min": os.getloadavg()[0],
        "address_space_limit_bytes": ADDRESS_SPACE_LIMIT,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "charzero" / "__init__.py").is_file():
        print(f"error: no charzero package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    env = _environment(args)

    # Set-up: interpreter start until charzero and its heavy modules are
    # imported.  Most of it is process start, shared-library loading and
    # unmarshalling, which contention slows like native code, so it is
    # rescaled like a native stretch by the probes the same interpreter runs
    # right after.  The first spawn is not timed; it compiles bytecode once.
    setup_samples = []
    for i in range(0 if args.trace else SETUP_SAMPLES + 1):
        setup, out, err, code = spawn_worker(["--setup-only"], deadline)
        probe = [float(line.split()[1]) for line in out.splitlines() if line.startswith("PROBE ")]
        if code != 0 or setup is None or not probe:
            print(f"error: the package does not import: {err.strip()[-500:]}", file=sys.stderr)
            return 1
        if i:
            setup_samples.append({"setup_s": setup, "probe_s": probe[0],
                                  "setup_norm_s": setup / (probe[0] / REFERENCE_PROBE_S) ** NATIVE_EXPONENT})

    passes, longest = [], 0.0
    while True:
        t_pass = time.monotonic()
        passes.append(_run_pass(args.workload, args.seed, len(passes), deadline))
        longest = max(longest, time.monotonic() - t_pass)
        if args.trace or time.monotonic() - t_start + longest > args.seconds:
            break
    traced = None
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        traced = _run_pass(args.workload, args.seed, 0, deadline, trace_file=spans_file)

    everything = passes + ([traced] if traced else [])
    env["numpy"] = next((p["numpy"] for p in everything if "numpy" in p), None)
    attempted = sum(len(p["jobs"]) for p in everything)
    failed = sum(1 for p in everything for j in p["jobs"] if j["problems"])
    for p in everything:
        for j in p["jobs"]:
            for problem in j["problems"]:
                print(f"FAILED {j['name']}: {problem}", file=sys.stderr)

    done = [p for p in passes if p["wall_s"] is not None]
    walls = [p["wall_norm_s"] for p in done]
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(everything):
        print(f"{'traced ' if p is traced else ''}pass {i}: wall_norm_s={p.get('wall_norm_s')} "
              f"wall_s={p['wall_s']} cpu_s={p.get('cpu_s')} native_share={p.get('native_share')} "
              f"peak_rss_mib={p.get('peak_rss_mib')} setup_s={p['setup_s']}")
    for key in ("wall_norm_s", "wall_s") if walls else ():
        q1, med, q3 = _quartiles([p[key] for p in done])
        print(f"{key} over {len(done)} passes: median {med:.4f}, quartiles {q1:.4f} .. {q3:.4f}")

    metrics: dict[str, dict] = {}
    if args.trace and walls and traced["wall_s"] is not None:
        layers = dict(traced["layer_metrics"])
        layers["trace.overhead_ratio"] = traced["wall_norm_s"] / walls[0]
        metrics = {m: {"value": layers[m], "unit": unit(m)} for m in PER_LAYER_METRICS}
    elif not args.trace and walls:
        metrics = {
            "wall_norm_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(p["peak_rss_mib"] for p in done), "unit": "MiB"},
            "setup_s": {"value": statistics.median(s["setup_norm_s"] for s in setup_samples), "unit": "s"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, "setup_samples": setup_samples, "passes": passes, "traced": traced,
                   "result": result, "run_s": time.monotonic() - t_start}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
