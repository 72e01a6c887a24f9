"""Command-line front end.

Every subcommand emits a machine-parseable result in JSON (default), CSV,
or an aligned pretty rendering.  Exactness contract: rationals are emitted
as "num/den" strings and cyclotomic values as coefficient vectors; no
floating-point number ever appears in the data stream.  Identical
invocations produce byte-identical output.

Exit codes: 0 success, 2 parameter validation failure (size limits included,
refused before the work) or an output that cannot be written (an unwritable
--output, a closed stdout pipe), 1 internal consistency failure (an
exactness check tripped, `ExactnessError` or another RuntimeError - always a
bug, never swallowed) or running out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .cyclotomic import CycInt
from .dixon import MAX_CLASSES, dixon_character_table, dixon_zero_census, verify_orthogonality
from .errors import ExactnessError
from .ffield import DEFAULT_FIELD_CAP, field_for_order, is_prime_power
from .gln import (
    MAX_CENSUS_CHARACTERS,
    GLDescriptor,
    class_count_poly,
    general_position_characters,
    general_position_count,
    gln_zero_ratio_formula,
    torus_inventory,
)
from .matgroup import DEFAULT_GROUP_CAP, conjugacy_classes, gl_group, gl_order, sl_group
from .weyl import weyl_classes

CAP_ENV_VAR = "CHARZERO_GROUP_CAP"


def _group_cap(args) -> int:
    cap = getattr(args, "cap", None)
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_GROUP_CAP


def _frac_str(x) -> str:
    """A rational as "num/den", or a bare integer when the denominator is 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _validate_prime_power(q: int, flag: str) -> None:
    if q > DEFAULT_FIELD_CAP:  # refused before trial division, which takes ~sqrt(q) steps
        raise ValueError(f"{flag} = {q} exceeds the field-size cap {DEFAULT_FIELD_CAP}")
    if is_prime_power(q) is None:
        raise ValueError(f"{flag} must be a prime power, got {q}")


def _validate_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")


def _jsonable(x):
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, CycInt):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _csv_cell(x) -> str:
    if isinstance(x, Fraction):
        return _frac_str(x)
    if isinstance(x, CycInt):
        return f"{x.conductor}:" + ",".join(map(str, x.coeffs))
    if isinstance(x, (list, tuple)):
        return "+".join(map(str, _jsonable(x))) if x else "-"
    if x is None:
        return ""
    return str(x)


def _json_leaf(x) -> str:
    """json.dumps(_jsonable(x)) for a value that is not a CycInt or a
    nonempty container, with the two common cases taken directly."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int.__repr__(x)
    return json.dumps(_jsonable(x))


def _json_chunks(x, level: int, cache: dict) -> Iterator[str]:
    """The text of json.dumps(_jsonable(x), indent=2, sort_keys=True) for x
    nested `level` containers deep (dict keys are strings), in pieces.  Each
    distinct CycInt is rendered once per level, through `cache`."""
    if isinstance(x, CycInt):
        key = (x.conductor, x.coeffs, level)
        text = cache.get(key)
        if text is None:
            text = cache[key] = "".join(_json_chunks(x.to_json(), level, cache))
        yield text
    elif isinstance(x, (dict, list, tuple)) and x:
        if isinstance(x, dict):
            brackets = "{}"
            items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(x.items())]
        else:
            brackets, items = "[]", [("", v) for v in x]
        inner = "\n" + "  " * (level + 1)
        for i, (key, v) in enumerate(items):
            head = ("," if i else brackets[0]) + inner + key
            if isinstance(v, (CycInt, dict, list, tuple)):
                yield head
                yield from _json_chunks(v, level + 1, cache)
            else:
                yield head + _json_leaf(v)
        yield "\n" + "  " * level + brackets[1]
    else:
        yield _json_leaf(x)


def emit(result: dict, rows: list[dict] | None, fmt: str, out) -> None:
    if fmt == "json":
        payload = dict(result)
        if rows is not None:
            payload["rows"] = rows
        out.writelines(_json_chunks(payload, 0, {}))
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(row.get(k)) for k in header])
        else:
            keys = sorted(result.keys())
            writer.writerow(keys)
            writer.writerow([_csv_cell(result[k]) for k in keys])
        return
    # pretty
    for k in sorted(result.keys()):
        out.write(f"{k}: {_csv_cell(result[k]) if not isinstance(result[k], dict) else json.dumps(_jsonable(result[k]))}\n")
    if rows:
        header = list(rows[0].keys())
        cells = [[_csv_cell(r.get(k)) for k in header] for r in rows]
        widths = [
            max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for c in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(c, widths)) + "\n")


# -- subcommand implementations ----------------------------------------------


def _cmd_weyl_stats(args):
    t = weyl_classes(args.type, args.rank, lattice=args.lattice)
    result = {
        "cartan_type": t.cartan_type,
        "rank": t.rank,
        "group_order": t.group_order,
        "num_classes": t.num_classes,
        "sum_inv_c": t.sum_inv_c(),
        "sum_inv_c_sq": t.sum_inv_c_sq(),
    }
    rows = [
        {
            "label": c.label,
            "class_size": c.class_size,
            "centralizer_order": c.centralizer_order,
            "torus_order_poly": str(c.char_poly),
        }
        for c in t.classes
    ]
    return result, rows


def _cmd_torus_orders(args):
    t = weyl_classes(args.type, args.rank, lattice=args.lattice)
    rows = [
        {
            "label": c.label,
            "torus_order_poly": str(c.char_poly),
            "coeffs": list(c.char_poly.coeffs),
        }
        for c in t.classes
    ]
    return {"cartan_type": t.cartan_type, "rank": t.rank}, rows


def _cmd_gln_structure(args):
    _validate_n(args.n)
    _validate_prime_power(args.q, "--q")
    # the general-position census costs about 0.3 us per character; the
    # partition (n) alone has q^n - 1 >= 2^n - 1 of them, so a large n is
    # refused before the sum is formed
    cap = MAX_CENSUS_CHARACTERS
    if args.n > cap.bit_length() or general_position_characters(args.n, args.q) > cap:
        raise ValueError(f"--n = {args.n}, --q = {args.q}: the general-position census "
                         f"walks more than {cap} characters")
    d = GLDescriptor.make(args.n, args.q)
    inv = torus_inventory(args.n, args.q)
    rows = [
        {
            "partition": rec.partition,
            "torus_order": rec.torus_order,
            "regular_count": rec.regular_count,
            "weyl_centralizer": rec.weyl_centralizer,
            "regular_class_count": rec.regular_class_count,
            "general_position_orbits": general_position_count(rec.partition, args.q, rec.regular_count),
        }
        for rec in inv
    ]
    result = {
        "n": d.n,
        "q": d.q,
        "rank": d.rank,
        "semisimple_rank": d.semisimple_rank,
        "center_order": d.center_order,
        "positive_root_count": d.positive_root_count,
        "class_count": d.class_count,
        "regular_ss_class_count": sum(rec.regular_class_count for rec in inv),
    }
    return result, rows


def _group_for(args):
    _validate_n(args.n)
    _validate_prime_power(args.q, "--q")
    cap = _group_cap(args)
    if args.group == "gl":
        # tau has a closed form, so an oversize table is refused before the
        # group is enumerated; over the order cap `gl_group` refuses first,
        # and SL is checked by `dixon_character_table`
        if gl_order(args.n, args.q) <= cap:
            tau = class_count_poly(args.n).evaluate(args.q)
            if tau > MAX_CLASSES:
                raise ValueError(f"class count {tau} exceeds supported maximum {MAX_CLASSES}")
        return gl_group(args.n, args.q, cap)
    return sl_group(args.n, args.q, cap)


def _cmd_char_table(args):
    g = _group_for(args)
    if g.order > 10**5:
        print(f"enumerated group of order {g.order}; computing classes...",
              file=sys.stderr)
    cd = conjugacy_classes(g)
    t = dixon_character_table(g, cd)
    if not verify_orthogonality(t):
        raise ExactnessError("orthogonality verification failed")
    result = t.as_dict()
    result["group"] = f"{args.group}{args.n}(F{args.q})"
    result["orthogonal"] = True
    return result, None


def _cmd_zero_density(args):
    g = _group_for(args)
    zc = dixon_zero_census(g, conjugacy_classes(g))
    result = {
        "group": f"{args.group}{args.n}(F{args.q})",
        "zeros": zc.zero_entries,
        "entries": zc.total_entries,
        "ratio": zc.ratio,
    }
    if args.group == "gl" and args.n in (2, 3):
        formula = gln_zero_ratio_formula(args.n, args.q)
        result["formula"] = formula
        result["match"] = zc.ratio == formula
    return result, None


def _cmd_lie_fourier(args):
    from .liefourier import (
        adjoint_orbits,
        check_fourier_size,
        check_matrix_space,
        fourier_table,
        fourier_zero_census,
    )

    _validate_prime_power(args.q, "--q")
    check_fourier_size(args.n, args.q)
    check_matrix_space(args.n, args.q)
    o = adjoint_orbits(args.n, field_for_order(args.q))
    ft = fourier_table(o)
    zc = fourier_zero_census(ft)
    result = {
        "algebra": f"gl{args.n}(F{args.q})",
        "orbits": o.num_orbits,
        "semisimple_orbits": sum(1 for r in o.orbits if r.is_semisimple),
        "regular_semisimple_orbits": sum(
            1 for r in o.orbits if r.is_regular_semisimple
        ),
        "zeros": zc.zero_entries,
        "entries": zc.total_entries,
        "ratio": zc.ratio,
    }
    rows = None
    if args.full:
        rows = []
        for i, row in enumerate(ft.values):
            for j, v in enumerate(row):
                rows.append({"source_orbit": i, "target_orbit": j, "value": v})
    return result, rows


def _cmd_kl_verify(args):
    from .liefourier import check_matrix_space, kl_verify

    _validate_prime_power(args.q, "--q")
    check_matrix_space(args.n, args.q)
    rep = kl_verify(args.n, field_for_order(args.q))
    result = {
        "algebra": f"gl{args.n}(F{args.q})",
        "cartan_representatives": rep.cartan_reps,
        "orbits": rep.orbits,
        "pairs_checked": rep.pairs_checked,
        "violations": len(rep.violations),
        "passed": rep.passed,
    }
    return result, None


def _cmd_bounds(args):
    from .bounds import (
        fulman_guralnick_check,
        gl_bound_input,
        guralnick_lubeck_check,
        lower_bound_general,
        threshold_search,
    )

    if args.check != "sl" and hasattr(args, "cap"):  # only --check sl enumerates a group
        raise ValueError(f"--cap applies to --check sl only, not --check {args.check}")
    if args.check != "threshold":
        _validate_n(args.n)
        _validate_prime_power(args.q, "--q")
    if args.check == "lower":
        b = gl_bound_input(args.n, args.q)
        res = lower_bound_general(b)
        result = {
            "group": f"gl{args.n}(F{args.q})",
            "n_rss": b.n_rss,
            "n_classes": b.n_classes,
            "sum_inv_c_sq": b.sum_inv_c_sq,
            "raw": res.raw,
            "clamped": res.clamped,
        }
        return result, None
    if args.check == "sl":
        if args.n > 3:  # refused before enumerating: mat_charpoly stops at n = 3
            raise ValueError(f"--n = {args.n}: the SL checks read characteristic "
                             "polynomials, limited to n <= 3")
        if args.n < 2:  # the class bound q^r + 40 q^(r-1) needs the rank r = n - 1 >= 1
            raise ValueError(f"--n = {args.n}: the SL checks need rank n - 1 >= 1, so n >= 2")
        g = sl_group(args.n, args.q, _group_cap(args))
        cd = conjugacy_classes(g)
        gl_chk = guralnick_lubeck_check(g, cd)
        fg_chk = fulman_guralnick_check(g, cd)
        result = {
            "group": f"sl{args.n}(F{args.q})",
            "rss_proportion": gl_chk.lhs,
            "rss_bound": gl_chk.rhs,
            "rss_passes": gl_chk.passes,
            "class_count": fg_chk.class_count,
            "class_bound": fg_chk.bound,
            "class_passes": fg_chk.passes,
        }
        return result, None
    # threshold
    try:
        eps = Fraction(args.epsilon)
    except ZeroDivisionError:
        raise ValueError(f"--epsilon {args.epsilon} has a zero denominator") from None
    res = threshold_search(args.rank_cap, eps, mode=args.mode, which=args.which)
    result = {
        "mode": res.mode,
        "which": res.which,
        "epsilon": res.epsilon,
        "rank_cap": res.rank_cap,
        "threshold": res.threshold,
        "certified_window": res.certified_window,
    }
    return result, None


def _cmd_trend(args):
    from .bounds import trend_report

    ns = [int(x) for x in args.n.split(",")]
    for n in ns:
        _validate_n(n)
    qs: list[int | None] = []
    for tok in args.q.split(","):
        if tok in ("inf", "oo"):
            qs.append(None)
        else:
            q = int(tok)
            _validate_prime_power(q, "--q")
            qs.append(q)
    rows_data = trend_report(ns, qs)
    rows = [
        {
            "n": r.n,
            "q": "inf" if r.q is None else r.q,
            "one_minus_sum_inv_c_sq": r.weyl_complement,
            "formula_ratio": r.formula_ratio,
            "brute_ratio": r.brute_ratio,
        }
        for r in rows_data
    ]
    return {"rows_count": len(rows)}, rows


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output path (default: stdout)")
    capped = argparse.ArgumentParser(add_help=False)  # the subcommands that enumerate a group
    capped.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help=f"group enumeration cap (or env {CAP_ENV_VAR})")

    p = argparse.ArgumentParser(
        prog="charzero",
        parents=[common],
        description="Exact zero-density census for character tables of "
        "finite reductive groups and their Lie algebras.",
    )
    subparsers = p.add_subparsers(dest="command", required=True)

    def sub(name, help, *parents):
        return subparsers.add_parser(name, parents=[common, *parents], help=help)

    sp = sub("weyl-stats", help="Weyl class statistics")
    sp.add_argument("--type", required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--lattice", choices=("permutation", "reflection"),
                    default="permutation")
    sp.set_defaults(fn=_cmd_weyl_stats)

    sp = sub("torus-orders", help="twisted torus order polynomials")
    sp.add_argument("--type", required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--lattice", choices=("permutation", "reflection"),
                    default="permutation")
    sp.set_defaults(fn=_cmd_torus_orders)

    sp = sub("gln-structure", help="GL_n torus inventory and counts")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=_cmd_gln_structure)

    sp = sub("char-table", "exact character table", capped)
    sp.add_argument("--group", choices=("gl", "sl"), default="gl")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=_cmd_char_table)

    sp = sub("zero-density", "character table zero census", capped)
    sp.add_argument("--group", choices=("gl", "sl"), default="gl")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=_cmd_zero_density)

    sp = sub("lie-fourier", help="adjoint orbit Fourier census")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--full", action="store_true", help="emit the full table")
    sp.set_defaults(fn=_cmd_lie_fourier)

    sp = sub("kl-verify", help="Fourier / induction identity check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=_cmd_kl_verify)

    sp = sub("bounds", "lower bound, SL checks, thresholds", capped)
    sp.add_argument("--check", choices=("lower", "sl", "threshold"), required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--rank-cap", type=int, default=8)
    sp.add_argument("--epsilon", default="1/10")
    sp.add_argument("--mode", choices=("fixed-rank", "growing-rank"),
                    default="fixed-rank")
    sp.add_argument("--which", choices=("first", "second", "both"), default="first")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub("trend", help="zero-density trend rows")
    sp.add_argument("--n", required=True, help="comma list of n values")
    sp.add_argument("--q", required=True, help="comma list of q values ('inf' allowed)")
    sp.set_defaults(fn=_cmd_trend)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, rows = args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "json")
    output = getattr(args, "output", None)
    if not output:
        try:
            emit(result, rows, fmt, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; point stdout at devnull so that the flush at
            # exit does not fail on the same pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: stdout was closed before the output was written", file=sys.stderr)
            return 2
        return 0
    try:
        with open(output, "w") as f:
            emit(result, rows, fmt, f)
    except OSError as e:
        print(f"error: --output {output} is not writable: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
