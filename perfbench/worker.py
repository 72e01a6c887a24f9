"""One benchmark pass: the jobs of one workload in this fresh interpreter.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --pass-index I [--trace FILE]
    python3 perfbench/worker.py --root DIR --setup-only

The interpreter runs under an address-space limit, so a runaway allocation
fails as a counted MemoryError instead of exhausting the machine.  Once
``charzero`` is imported the worker prints ``READY <time.monotonic()>``; the
parent takes set-up time from it.  With ``--setup-only`` it then prints
``PROBE <seconds>``, the median of back-to-back speed probes, which the
parent uses to rescale that set-up time.  The jobs run under the speed probe
(probe.py).  After the jobs it checks every output and prints one JSON line
with the pass's timings and check results.  With
``--trace`` the public functions are wrapped (see tracer.py) and the spans
are written to FILE.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ADDRESS_SPACE_LIMIT = 3 << 30  # bytes; the machine has 7 GiB


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import charzero
    import charzero.bounds
    import charzero.cli
    import charzero.liefourier

    if not os.path.abspath(charzero.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"charzero was imported from {charzero.__file__}, not from {src}")
    return numpy, charzero.cli


def _run_job(job, seed, cli):
    """Run one job and return (output, error); error is None on success."""
    from workloads import run_library_job

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is None:
                return run_library_job(job, seed), None
            code = cli.main(list(job.argv))
    except SystemExit as e:  # argparse rejected the argv
        code = e.code
    except Exception as e:  # MemoryError included: count it, keep the pass going
        lines = traceback.format_exception_only(type(e), e)
        return out.getvalue(), f"exception: {''.join(lines).strip()}"
    if code != 0:
        return out.getvalue(), f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), None


def _check(jobs, outputs, digests):
    """Per-job problem lists: digest, then invariants from an independent route."""
    from workloads import check_invariants

    parsed = {}
    for job in jobs:
        text, error = outputs[job.name]
        if error is None:
            try:
                parsed[job.name] = json.loads(text)
            except json.JSONDecodeError as e:
                outputs[job.name] = (text, f"output is not JSON: {e}")
    problems = {}
    for job in jobs:
        text, error = outputs[job.name]
        found = [] if error is None else [error]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests is not None and digests.get(job.name) != digest:
            found.append(f"stdout sha256 {digest} differs from the pinned digest")
        if job.name in parsed:
            found += check_invariants(job, parsed[job.name], parsed)
        problems[job.name] = (digest, found)
    return problems


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace")
    ap.add_argument("--no-digests", action="store_true", help="skip the digest comparison (pinning)")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    numpy, cli = _import_package(args.root)
    print(f"READY {time.monotonic()!r}", flush=True)
    from probe import SpeedProbe, probe_speed

    if args.setup_only:
        print(f"PROBE {probe_speed()!r}", flush=True)
        return 0

    from tracer import Tracer
    from workloads import pass_order

    jobs = pass_order(args.workload, args.seed, args.pass_index)
    digests = None
    if not args.no_digests:
        with open(os.path.join(os.path.dirname(__file__), "digests.json")) as f:
            digests = json.load(f)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    outputs, intervals = {}, {}
    probe = SpeedProbe()
    cpu_start = _cpu_seconds()
    probe.start()
    t_pass = time.perf_counter()
    for job in jobs:
        t_job = time.perf_counter()
        if tracer is None:
            outputs[job.name] = _run_job(job, args.seed, cli)
        else:
            with tracer.span(f"job {job.name}"):
                outputs[job.name] = _run_job(job, args.seed, cli)
        intervals[job.name] = (t_job, time.perf_counter())
    t_end = time.perf_counter()
    probe.stop()
    cpu_s = _cpu_seconds() - cpu_start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = _check(jobs, outputs, digests)
    wall_norm, native = probe.normalized(t_pass, t_end)
    report = {
        "wall_s": t_end - t_pass,
        "wall_norm_s": wall_norm,
        "native_share": native / (t_end - t_pass),
        "cpu_s": cpu_s,
        "probes": len(probe.samples),
        "probe_median_s": probe.median(),
        "peak_rss_mib": peak_rss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jobs": [
            {"name": j.name, "wall_s": intervals[j.name][1] - intervals[j.name][0],
             "wall_norm_s": probe.normalized(*intervals[j.name])[0], "sha256": problems[j.name][0],
             "problems": problems[j.name][1]}
            for j in jobs
        ],
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics["cli.output_bytes"] = sum(len(outputs[j.name][0].encode()) for j in jobs if j.argv)
        report["layer_metrics"] = metrics
        with open(args.trace, "w") as f:
            json.dump({"jobs": tracer.jobs(), "layer_metrics": metrics, "spans": tracer.spans}, f)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
