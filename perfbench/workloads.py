"""The benchmark's workloads: the jobs of one pass and the checks on their output.

A CLI job is an argv for ``charzero.cli.main``; its output is the captured
stdout.  A library job covers a surface the CLI does not have; its output is
the canonical JSON of the dict it returns.  Every output is checked twice:
its sha256 against ``digests.json`` and its invariants against an
independent route (closed forms, group orders, identities such as
sum of 1/c_i = 1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...] | None = None  # CLI job when set
    lib: str | None = None  # name in LIBRARY_JOBS otherwise
    lib_args: tuple = ()


def cli(line: str) -> Job:
    return Job(name=line, argv=tuple(line.split()))


def lib(fn: str, *args) -> Job:
    return Job(name=" ".join([fn, *map(str, args)]), lib=fn, lib_args=args)


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS: dict[str, list[Job]] = {
    "verified-tables": [
        cli("char-table --n 2 --q 7"),
        cli("char-table --n 2 --q 9"),
    ],
    "census": [
        cli("zero-density --n 2 --q 11"),
        cli("zero-density --n 3 --q 3"),
    ],
    "additive": [
        cli("lie-fourier --n 2 --q 7"),
        cli("lie-fourier --n 3 --q 3"),
        cli("kl-verify --n 2 --q 7"),
        lib("fourier-scale", 2, 7),
    ],
    "asymptotics": [
        cli("weyl-stats --type E6 --rank 6"),
        cli("weyl-stats --type F4 --rank 4"),
        lib("weyl-stream", "A", 60),
        lib("weyl-stream", "B", 60),
        lib("weyl-stream", "D", 60),
        cli("torus-orders --type D --rank 10"),
        cli("gln-structure --n 4 --q 3"),
        cli("gln-structure --n 5 --q 2"),
        cli("bounds --check threshold --rank-cap 16 --epsilon 1/20 --which both"),
        cli("bounds --check threshold --mode growing-rank --epsilon 1/100 --which both"),
        cli("trend --n 2,3,4,6,8 --q 2,inf"),
    ],
}


def pass_order(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The seed permutes the job order of each pass."""
    jobs = list(WORKLOADS[workload])
    random.Random(f"{seed}:{pass_index}").shuffle(jobs)
    return jobs


def fourier_scale(seed: int, q: int) -> int:
    """The seeded scale a in F_q^x, never 1 so the scale check is never trivial."""
    return random.Random(seed).randrange(2, q)


# -- library jobs ------------------------------------------------------------


def _fourier_scale_job(seed: int, n: int, q: int) -> dict:
    from charzero.ffield import field_for_order
    from charzero.liefourier import adjoint_orbits, fourier_table, fourier_zero_census

    o = adjoint_orbits(n, field_for_order(q))
    zc = fourier_zero_census(fourier_table(o, scale=fourier_scale(seed, q)))
    # The scale is left out on purpose: the output must not depend on it.
    return {
        "algebra": f"gl{n}(F{q})",
        "orbits": o.num_orbits,
        "orbit_size_sum": sum(r.size for r in o.orbits),
        "zeros": zc.zero_entries,
        "entries": zc.total_entries,
    }


def _weyl_stream_job(seed: int, cartan_type: str, rank: int) -> dict:
    from charzero.weyl import bbw_bound_check, sum_inv_c_sq_stream, sum_inv_c_stream

    sq = sum_inv_c_sq_stream(cartan_type, rank)
    s = sum_inv_c_stream(cartan_type, rank)
    chk = bbw_bound_check(cartan_type, rank)
    return {
        "type": cartan_type,
        "rank": rank,
        "sum_inv_c": str(s),
        "sum_inv_c_sq": str(sq),
        "probability": str(chk.probability),
        "bound": str(chk.bound),
        "passes": chk.passes,
    }


LIBRARY_JOBS = {"fourier-scale": _fourier_scale_job, "weyl-stream": _weyl_stream_job}


def run_library_job(job: Job, seed: int) -> str:
    result = LIBRARY_JOBS[job.lib](seed, *job.lib_args)
    return json.dumps(result, sort_keys=True) + "\n"


# -- invariant checks ----------------------------------------------------------


def _gl_order(n: int, q: int) -> int:
    return prod(q**n - q**i for i in range(n))


def _gl_class_count(n: int, q: int) -> int:
    from charzero.gln import class_count_poly

    return class_count_poly(n).evaluate(q)


# similarity classes of n x n matrices over F_q, i.e. adjoint orbits of gl_n
_SIMILARITY_CLASSES = {2: lambda q: q * q + q, 3: lambda q: q**3 + q * q + q}
_WEYL_ORDERS = {"E6": 51840, "F4": 1152}


def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_char_table(d, argv, outputs, problems):
    n, q = int(_flag(argv, "--n")), int(_flag(argv, "--q"))
    order = _gl_order(n, q)
    _expect(problems, d["group_order"] == order, "group order differs from prod(q^n - q^i)")
    _expect(problems, sum(x * x for x in d["degrees"]) == order, "sum of squared degrees != |G|")
    _expect(problems, sum(d["class_sizes"]) == order, "class sizes do not sum to |G|")
    _expect(problems, d["orthogonal"] is True, "orthogonal is not true")
    _expect(problems, d["num_classes"] == _gl_class_count(n, q), "class count != class_count_poly(n)(q)")
    _expect(problems, len(d["values"]) == d["num_classes"], "table is not square")


def _check_zero_density(d, argv, outputs, problems):
    n, q = int(_flag(argv, "--n")), int(_flag(argv, "--q"))
    tau = _gl_class_count(n, q)
    _expect(problems, d["entries"] == tau * tau, "entries != class_count_poly(n)(q)^2")
    _expect(problems, 0 <= d["zeros"] <= d["entries"], "zero count out of range")
    _expect(problems, Fraction(d["ratio"]) == Fraction(d["zeros"], d["entries"]), "ratio != zeros/entries")


def _check_lie_fourier(d, argv, outputs, problems):
    n, q = int(_flag(argv, "--n")), int(_flag(argv, "--q"))
    _expect(problems, d["orbits"] == _SIMILARITY_CLASSES[n](q), "orbit count != similarity-class count")
    _expect(problems, d["entries"] == d["orbits"] ** 2, "entries != orbits^2")
    _expect(problems, Fraction(d["ratio"]) == Fraction(d["zeros"], d["entries"]), "ratio != zeros/entries")


def _check_kl_verify(d, argv, outputs, problems):
    n, q = int(_flag(argv, "--n")), int(_flag(argv, "--q"))
    _expect(problems, d["passed"] is True and d["violations"] == 0, "KL identity check did not pass")
    _expect(problems, d["cartan_representatives"] == comb(q, n), "Cartan representatives != C(q, n)")
    _expect(problems, d["orbits"] == _SIMILARITY_CLASSES[n](q), "orbit count != similarity-class count")
    _expect(problems, d["pairs_checked"] == d["cartan_representatives"] * d["orbits"], "pairs != reps * orbits")


def _check_weyl_stats(d, argv, outputs, problems):
    order = _WEYL_ORDERS[_flag(argv, "--type")]
    rows = d["rows"]
    _expect(problems, d["group_order"] == order, "|W| differs from the known order")
    _expect(problems, d["num_classes"] == len(rows), "num_classes != number of rows")
    _expect(problems, sum(r["class_size"] for r in rows) == order, "class sizes do not sum to |W|")
    _expect(problems, all(r["class_size"] * r["centralizer_order"] == order for r in rows),
            "class size * centralizer order != |W|")
    _expect(problems, Fraction(d["sum_inv_c"]) == 1, "sum of 1/c_i != 1")


def _check_torus_orders(d, argv, outputs, problems):
    rank = int(_flag(argv, "--rank"))
    _expect(problems, d["rank"] == rank and len(d["rows"]) > 0, "rank or rows missing")
    _expect(problems, all(len(r["coeffs"]) == rank + 1 and r["coeffs"][-1] == 1 for r in d["rows"]),
            "a torus order polynomial is not monic of degree rank")


def _check_gln_structure(d, argv, outputs, problems):
    n, q = int(_flag(argv, "--n")), int(_flag(argv, "--q"))
    _expect(problems, len(d["rows"]) == _partition_count(n), "rows != number of partitions of n")
    _expect(problems, d["center_order"] == q - 1, "center order != q - 1")
    _expect(problems, d["positive_root_count"] == n * (n - 1) // 2, "positive roots != n(n-1)/2")
    _expect(problems, d["class_count"] == _gl_class_count(n, q), "class count != class_count_poly(n)(q)")
    _expect(problems, sum(r["regular_class_count"] for r in d["rows"]) == d["regular_ss_class_count"],
            "per-torus regular class counts do not sum to the total")


def _check_bounds(d, argv, outputs, problems):
    _expect(problems, Fraction(d["epsilon"]) == Fraction(_flag(argv, "--epsilon")), "epsilon not echoed")
    _expect(problems, d["which"] == _flag(argv, "--which"), "which not echoed")
    mode = _flag(argv, "--mode") if "--mode" in argv else "fixed-rank"
    _expect(problems, d["mode"] == mode, "mode not echoed")
    _expect(problems, d["threshold"] >= 2 and d["certified_window"] == 50, "threshold not certified")


def _check_trend(d, argv, outputs, problems):
    rows = d["rows"]
    ns, qs = _flag(argv, "--n").split(","), _flag(argv, "--q").split(",")
    _expect(problems, d["rows_count"] == len(rows) == len(ns) * len(qs), "row count != |n| * |q|")
    # the q -> infinity closed form must agree with the Weyl statistic
    for r in rows:
        if r["q"] == "inf" and r["n"] in (2, 3):
            _expect(problems, r["formula_ratio"] == r["one_minus_sum_inv_c_sq"],
                    f"n={r['n']}: limit of the closed form != 1 - sum 1/c^2")


def _check_fourier_scale(d, job, outputs, problems):
    n, q = job.lib_args
    _expect(problems, d["orbit_size_sum"] == q ** (n * n), "orbit sizes do not sum to q^(n^2)")
    _expect(problems, d["orbits"] == _SIMILARITY_CLASSES[n](q), "orbit count != similarity-class count")
    unscaled = outputs.get(f"lie-fourier --n {n} --q {q}")
    if unscaled is not None:
        _expect(problems, (d["zeros"], d["entries"]) == (unscaled["zeros"], unscaled["entries"]),
                "the scaled census differs from the census with a = 1")


def _check_weyl_stream(d, job, outputs, problems):
    rank = job.lib_args[1]
    _expect(problems, Fraction(d["sum_inv_c"]) == 1, "sum of 1/c_i != 1")
    _expect(problems, 0 < Fraction(d["sum_inv_c_sq"]) <= 1, "sum of 1/c_i^2 out of (0, 1]")
    _expect(problems, d["probability"] == d["sum_inv_c_sq"], "bound check used another sum")
    _expect(problems, Fraction(d["bound"]) == Fraction(6, rank * rank) and d["passes"] is True,
            "6/r^2 bound check did not pass")


_CLI_CHECKS = {
    "char-table": _check_char_table,
    "zero-density": _check_zero_density,
    "lie-fourier": _check_lie_fourier,
    "kl-verify": _check_kl_verify,
    "weyl-stats": _check_weyl_stats,
    "torus-orders": _check_torus_orders,
    "gln-structure": _check_gln_structure,
    "bounds": _check_bounds,
    "trend": _check_trend,
}
_LIBRARY_CHECKS = {"fourier-scale": _check_fourier_scale, "weyl-stream": _check_weyl_stream}


def check_invariants(job: Job, parsed: dict, outputs: dict[str, dict]) -> list[str]:
    """Problems found in one job's parsed output; `outputs` maps every job of
    the pass to its parsed output, for checks that compare two jobs."""
    problems: list[str] = []
    try:
        if job.argv is not None:
            _CLI_CHECKS[job.argv[0]](parsed, job.argv, outputs, problems)
        else:
            _LIBRARY_CHECKS[job.lib](parsed, job, outputs, problems)
    except (KeyError, TypeError, ValueError) as e:
        problems.append(f"malformed output: {type(e).__name__}: {e}")
    return problems
