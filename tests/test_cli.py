import hashlib
import json
import re
import sys
import time
from fractions import Fraction

import pytest

from charzero import cli
from charzero.dixon import CharacterTable


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_zero_density_schema(capsys):
    code, out, _ = run_cli(["zero-density", "--group", "gl", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"group", "zeros", "entries", "ratio", "formula", "match"}
    assert obj["entries"] == 64
    assert obj["formula"] == "5/32"
    assert obj["zeros"] == 15 and obj["ratio"] == "15/64"
    assert obj["match"] is False  # the closed form undercounts at odd q


def test_zero_density_matches_at_even_q(capsys):
    code, out, _ = run_cli(["zero-density", "--group", "gl", "--n", "2", "--q", "4"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["match"] is True and obj["ratio"] == "1/5"


def test_weyl_stats_values(capsys):
    code, out, _ = run_cli(["weyl-stats", "--type", "A", "--rank", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["sum_inv_c"] == "1"
    assert obj["sum_inv_c_sq"] == "7/18"


def test_prime_power_validation(capsys):
    code, _, err = run_cli(["zero-density", "--group", "gl", "--n", "2", "--q", "6"], capsys)
    assert code == 2
    assert "--q must be a prime power" in err


def test_kl_bad_characteristic_is_validation_error(capsys):
    code, _, err = run_cli(["kl-verify", "--n", "2", "--q", "2"], capsys)
    assert code == 2
    assert "very good" in err


def test_internal_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_orthogonality", lambda t: False)
    code, _, err = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "2"], capsys)
    assert code == 1
    assert "orthogonality" in err


def test_corrupted_degree_exits_one(capsys, monkeypatch):
    from charzero import dixon

    real = dixon._degrees  # every degree d comes out as d + 1
    monkeypatch.setattr(dixon, "_degrees", lambda *args: real(*args) + 1)
    code, out, err = run_cli(["zero-density", "--group", "gl", "--n", "2", "--q", "3"], capsys)
    assert code == 1 and out == ""
    assert "internal check failed" in err and "degree bound" in err


def test_exactness_error_mid_run_exits_one(capsys, monkeypatch):
    # a polynomial division that leaves a remainder is an internal failure
    # (exit 1), not a parameter error (exit 2)
    from charzero.polynomials import IntPoly

    def with_remainder(self, divisor):
        return IntPoly(()), IntPoly((1,))

    monkeypatch.setattr(cli, "weyl_classes", cli.weyl_classes.__wrapped__)  # no cached table
    monkeypatch.setattr(IntPoly, "divmod_exact", with_remainder)
    code, out, err = run_cli(["weyl-stats", "--type", "A", "--rank", "2", "--lattice", "reflection"],
                             capsys)
    assert code == 1 and out == ""
    assert "internal check failed" in err and "left a remainder" in err


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "3"], capsys)
    _, out2, _ = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "3"], capsys)
    assert out1 == out2


FLOAT_RE = re.compile(r"\d+\.\d")


@pytest.mark.parametrize(
    "argv",
    [
        ["zero-density", "--group", "gl", "--n", "2", "--q", "3"],
        ["trend", "--n", "2", "--q", "2,3,inf"],
        ["trend", "--n", "2", "--q", "2,3,inf", "--format", "csv"],
        ["weyl-stats", "--type", "B", "--rank", "3", "--format", "csv"],
        ["lie-fourier", "--n", "2", "--q", "3"],
        ["bounds", "--check", "lower", "--n", "2", "--q", "5"],
    ],
)
def test_no_floats_in_output(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert not FLOAT_RE.search(out), out


def test_char_table_round_trip(capsys):
    code, out, _ = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    t = CharacterTable.from_json(obj)
    assert t.to_json() == {
        k: v for k, v in obj.items() if k not in ("group", "orthogonal")
    }


def test_csv_header_and_exact_cells(capsys):
    code, out, _ = run_cli(
        ["trend", "--n", "2", "--q", "3,inf", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q,one_minus_sum_inv_c_sq,formula_ratio,brute_ratio"
    assert lines[1].startswith("2,3,1/2,5/32,15/64")
    assert lines[2].startswith("2,inf,1/2,1/2,")


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(
        ["weyl-stats", "--type", "A", "--rank", "1", "--output", str(path)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["group_order"] == 2


def test_unwritable_output_path(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(
        ["weyl-stats", "--type", "A", "--rank", "1", "--output", str(path)], capsys
    )
    assert code == 2 and "--output" in err


def test_global_flags_both_positions(capsys):
    _, out1, _ = run_cli(
        ["--format", "csv", "weyl-stats", "--type", "A", "--rank", "1"], capsys
    )
    _, out2, _ = run_cli(
        ["weyl-stats", "--type", "A", "--rank", "1", "--format", "csv"], capsys
    )
    assert out1 == out2


def test_torus_orders_subcommand(capsys):
    code, out, _ = run_cli(["torus-orders", "--type", "A", "--rank", "1"], capsys)
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    assert rows["2"]["coeffs"] == [-1, 0, 1]  # q^2 - 1
    assert rows["1+1"]["coeffs"] == [1, -2, 1]  # (q-1)^2


def test_bounds_threshold_subcommand(capsys):
    code, out, _ = run_cli(
        ["bounds", "--check", "threshold", "--rank-cap", "8", "--epsilon", "1/10",
         "--which", "first"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["threshold"] == 168


def test_env_var_cap_override(capsys, monkeypatch):
    from charzero import matgroup

    monkeypatch.setenv(cli.CAP_ENV_VAR, "10")
    matgroup.gl_group.cache_clear()
    try:
        code, _, err = run_cli(
            ["zero-density", "--group", "gl", "--n", "2", "--q", "5"], capsys
        )
    finally:
        matgroup.gl_group.cache_clear()
    assert code == 2
    assert "cap" in err


def test_gln_structure_counts(capsys):
    code, out, _ = run_cli(["gln-structure", "--n", "2", "--q", "3"], capsys)
    obj = json.loads(out)
    assert obj["class_count"] == 8
    assert obj["regular_ss_class_count"] == 4
    assert {row["regular_class_count"] for row in obj["rows"]} == {1, 3}


@pytest.mark.parametrize(
    "argv",
    [["lie-fourier", "--n", "4", "--q", "2"], ["kl-verify", "--n", "4", "--q", "3"]],
)
def test_additive_commands_refuse_n_above_three_up_front(argv, capsys, monkeypatch):
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("group enumeration was reached")

    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "n <= 3" in err


def test_memory_error_exits_one_without_traceback(capsys, monkeypatch):
    def out_of_memory(t):
        raise MemoryError("Unable to allocate 11.0 GiB for an array")

    monkeypatch.setattr(cli, "verify_orthogonality", out_of_memory)
    code, out, err = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "2"], capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "memory" in err


@pytest.mark.parametrize("command", ["zero-density", "trend"])
def test_oversize_q_is_refused_before_factoring(command, capsys, monkeypatch):
    def unreachable(q):
        raise AssertionError("is_prime_power was reached")

    monkeypatch.setattr(cli, "is_prime_power", unreachable)
    code, out, err = run_cli([command, "--n", "2", "--q", "1000000016000000063"], capsys)
    assert code == 2 and out == ""
    assert "cap 1000000" in err


@pytest.mark.parametrize(
    "flags,message",
    [(["--rank-cap", "61", "--epsilon", "1/10", "--which", "both"], "rank cap 61 exceeds 60"),
     (["--rank-cap", "60", "--epsilon", "1/10000", "--which", "both"],
      "no threshold below 1000000"),
     (["--rank-cap", "2", "--epsilon", "1/100000", "--which", "second"],
      "no threshold below 1000000")],
)
def test_threshold_out_of_range_exits_two_up_front(flags, message, capsys, monkeypatch):
    from charzero import bounds

    def unreachable(*args):
        raise AssertionError("an inequality was evaluated")

    monkeypatch.setattr(bounds, "_power_ratio_holds", unreachable)
    monkeypatch.setattr(bounds, "_poly_ratio_holds", unreachable)
    code, out, err = run_cli(
        ["bounds", "--check", "threshold", *flags], capsys
    )
    assert code == 2 and out == ""
    assert message in err


def test_inexact_green_value_is_an_internal_failure(capsys, monkeypatch):
    from charzero import liefourier

    census = liefourier._orbit_census

    def miscounted(*args):
        cent, diagonals, fixing = census(*args)
        return cent, diagonals, fixing + 1

    monkeypatch.setattr(liefourier, "_orbit_census", miscounted)
    code, out, err = run_cli(["kl-verify", "--n", "2", "--q", "3"], capsys)
    assert code == 1 and out == ""
    assert "fixed-flag count is not divisible" in err


def test_merged_orbit_labels_are_an_internal_failure(capsys, monkeypatch):
    # merge the orbits of two non-semisimple matrices of gl_2(F_3), the
    # nilpotent E_12 (code 3) and 1 + E_12 (code 1 + 3 + 27): sizes still
    # partition the space and divide |GL_2(F_3)|, and the semisimple orbits
    # are untouched
    import numpy as np

    from charzero import liefourier

    labels = liefourier.orbit_labels

    def merged(size, perms):
        reps, orbit_of = labels(size, perms)
        keep, drop = sorted(int(orbit_of[c]) for c in (3, 31))
        orbit_of = np.where(orbit_of == drop, keep, orbit_of)
        return np.delete(reps, drop), orbit_of - (orbit_of > drop)

    monkeypatch.setattr(liefourier, "orbit_labels", merged)
    code, out, err = run_cli(["lie-fourier", "--n", "2", "--q", "3"], capsys)
    assert code == 1 and out == ""
    assert "orbit count 11 differs from the class count 12" in err


def test_an_oversized_fourier_table_is_refused_before_the_orbits(capsys, monkeypatch):
    """gl2(F53) passes the matrix-space cap but would need a 3.5 GB count
    array, (53^2 + 53)^2 * 53 * 8 bytes; gl2(F32) and gl3(F5) stay within
    MAX_FOURIER_BYTES and reach the orbit table."""
    from charzero import liefourier

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(liefourier, "adjoint_orbits", reached)
    code, out, err = run_cli(["lie-fourier", "--n", "2", "--q", "53"], capsys)
    assert code == 2 and out == ""
    assert f"needs {2862 ** 2 * 53 * 8} bytes" in err and str(liefourier.MAX_FOURIER_BYTES) in err
    for n, q in [(2, 32), (3, 5)]:
        with pytest.raises(Reached):
            cli.main(["lie-fourier", "--n", str(n), "--q", str(q)])


def test_kl_verify_over_an_extension_field(capsys):
    code, out, _ = run_cli(["kl-verify", "--n", "2", "--q", "9"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert obj["cartan_representatives"] == 36 and obj["orbits"] == 90
    assert obj["pairs_checked"] == 3240


def test_kl_verify_gl3_f4_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["kl-verify", "--n", "3", "--q", "4"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert obj["cartan_representatives"] == 4 and obj["orbits"] == 84
    assert obj["pairs_checked"] == 336
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a449fb19f02cf0577253414fbe380cb68382fab710d8a78c78c5f5a66769c07f")


@pytest.mark.slow
def test_kl_verify_gl3_f5_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["kl-verify", "--n", "3", "--q", "5"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["passed"] is True
    assert obj["cartan_representatives"] == 10 and obj["orbits"] == 155
    assert obj["pairs_checked"] == 1550
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15bc392d4efc560cd0ed1f8baca6670e75459063242771c8195dc3aadbcb8e64")


def test_zero_density_gl2_f16_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["zero-density", "--n", "2", "--q", "16"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["entries"] == 255 * 255 and obj["match"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24f7d88be428513c565e9cab76daae6f16384c3b4da14f85e954c62fbcd9f240")


def test_zero_density_gl3_f4_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["zero-density", "--n", "3", "--q", "4"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["entries"] == 60 * 60
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ee1dfa75363637f0e9c920b24a595ba70369572b694afe49d55387231dd5c57b")


@pytest.mark.slow
def test_zero_density_gl3_f5_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["zero-density", "--n", "3", "--q", "5"], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["entries"] == 120 * 120
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0d9ff2f37f5c5dd2c131dc590399716bed6ed416f8fdeb7f81c50a3188ded574")


@pytest.mark.parametrize("argv,digest", [
    (["--n", "2", "--q", "11"],
     "0e84e282aa952d6684a011f6712b9c0540bc9b0cd83a817424810be94570706b"),
    # conductor 14 880, where the whole m x phi(m) power basis takes 878 MiB
    (["--group", "sl", "--n", "2", "--q", "31"],
     "3aa8f5763f1cb73213dc676227a1df5e251f674ac67a52647bf633837e2ff485"),
], ids=["gl2-f11", "sl2-f31"])
def test_zero_density_builds_no_power_basis(argv, digest, capsys, monkeypatch):
    from charzero.cyclotomic import euler_phi, power_rows

    def no_whole_basis(m, ks):
        if len(ks) >= max(m, 2 * euler_phi(m) - 1):
            raise AssertionError(f"the power basis of conductor {m} was built")
        return power_rows(m, ks)

    for name, module in list(sys.modules.items()):
        if name.startswith("charzero") and hasattr(module, "power_rows"):
            monkeypatch.setattr(module, "power_rows", no_whole_basis)
    code, out, _ = run_cli(["zero-density", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [["--n", "2", "--q", "11"], ["--n", "3", "--q", "3"],
                                  ["--group", "sl", "--n", "2", "--q", "31"]], ids=lambda a: "-".join(a))
def test_zero_density_builds_no_cyclotomic_value_and_no_conductor_m_row(argv, capsys, monkeypatch):
    """The census reads each value of an element of order d in Z[zeta_d]:
    every power row it builds has an element order as its conductor."""
    from charzero import dixon
    from charzero.cyclotomic import CycInt
    from charzero.matgroup import conjugacy_classes, gl_group, sl_group

    def no_value(self, *args):
        raise AssertionError("a CycInt was built")

    conductors = set()
    real = dixon.power_rows
    monkeypatch.setattr(dixon, "power_rows", lambda m, ks: conductors.add(m) or real(m, ks))
    monkeypatch.setattr(CycInt, "__init__", no_value)
    code, out, _ = run_cli(["zero-density", *argv], capsys)
    assert code == 0 and json.loads(out)["zeros"] > 0
    args = dict(zip(argv[::2], argv[1::2]))
    g = (sl_group if args.get("--group") == "sl" else gl_group)(int(args["--n"]), int(args["--q"]))
    orders = set(conjugacy_classes(g).rep_orders)
    assert conductors and conductors <= orders


@pytest.mark.parametrize("q,digest", [
    (61, "6bc2af87eeeb4a703b3e7ba7d61faf6be6c25eb730083dc006cef2695c6f1cd9"),
    pytest.param(101, "214ec6542afbc1c64d92fec005cd6c2ee13529e48390d1d72b8683c60d29fee1",
                 marks=pytest.mark.slow),
    # conductor 2 328 648: the conductor-m table did not finish in 120 s
    pytest.param(167, "97634452b71439e0851af7a0df0550cf10102c54260da39d131aaf886b74d6ee",
                 marks=pytest.mark.slow),
])
def test_zero_density_sl2_stdout_is_pinned(q, digest, capsys):
    code, out, _ = run_cli(["zero-density", "--group", "sl", "--n", "2", "--q", str(q)], capsys)
    assert code == 0 and json.loads(out)["entries"] == (q + 4) ** 2
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize("q", [37, 41, 43, 47, 53])
def test_zero_density_sl2_past_the_old_power_basis_limit(q, capsys):
    code, out, _ = run_cli(["zero-density", "--group", "sl", "--n", "2", "--q", str(q)], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["entries"] == (q + 4) ** 2
    assert Fraction(obj["ratio"]) == Fraction(obj["zeros"], obj["entries"])


@pytest.mark.parametrize("command", ["zero-density", "char-table"])
@pytest.mark.parametrize("n,q,tau", [(2, 43, 1848), (1, 997, 996)])
def test_too_many_classes_is_refused_before_enumerating(command, n, q, tau, capsys, monkeypatch):
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("group enumeration was reached")

    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    code, out, err = run_cli([command, "--n", str(n), "--q", str(q)], capsys)
    assert code == 2 and out == ""
    assert f"class count {tau} exceeds supported maximum 256" in err


@pytest.mark.parametrize("argv", [
    ["char-table", "--n", "0", "--q", "2"],
    ["zero-density", "--n", "0", "--q", "3"],
    ["bounds", "--check", "lower", "--n", "0"],
    ["bounds", "--check", "sl", "--n", "0", "--q", "3"],
    ["trend", "--n", "0", "--q", "2"],
    ["trend", "--n", "-1", "--q", "inf"],
    ["trend", "--n", "2,0", "--q", "2,inf"],
])
def test_n_below_one_exits_two_up_front(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "--n must be at least 1" in err


def test_char_table_gl2_f11_verifies(capsys):
    code, out, _ = run_cli(["char-table", "--group", "gl", "--n", "2", "--q", "11"], capsys)
    assert code == 0
    assert json.loads(out)["orthogonal"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cb50382c7d56ccebfc5095a5c32e0cb64fe75a3e0162e88bcf0f4cc172d54701")


def test_char_table_gl3_f3_stdout_is_pinned(capsys):
    code, out, _ = run_cli(["char-table", "--n", "3", "--q", "3"], capsys)
    assert code == 0 and json.loads(out)["orthogonal"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c76005b44b660c12be455eed7383a5983365c9ab3d33295934439a398772b5a9")


@pytest.mark.slow
def test_char_table_gl2_f13_output_is_pinned(tmp_path):
    path = tmp_path / "gl2_f13.json"
    assert cli.main(["char-table", "--n", "2", "--q", "13", "--output", str(path)]) == 0
    digest = hashlib.sha256()
    with open(path, "rb") as f:  # about 127 MB
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == (
        "a23e73a00b4b8ff746d83bd2941b8dd98a19dd6fe4c4020844015c01e7b254e1")


@pytest.mark.parametrize("argv,digest", [
    ("weyl-stats --type E6 --rank 6",
     "129790da9bfc9133b5a860d372e347e69c939939a5c0cd99efbbc11553024ea0"),
    ("weyl-stats --type F4 --rank 4",
     "8711dd8a7b1ef0b4d9859a15f8de2e9b7b24c6274a159e5f65afe6fb60592367"),
    ("weyl-stats --type G2 --rank 2",
     "bb102605524446c2f2fcf17ebead8fc8d509aea9eb917371a58e259db7265bc7"),
])
def test_exceptional_weyl_stats_stdout_is_pinned(argv, digest, capsys):
    # pins the class order, labels and torus polynomials of the enumeration
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("torus-orders --type D --rank 10",
     "6b7f37e64225ae81f6dd16d6493da18ce3692800f84c23bc677915c2c608993d"),
    ("torus-orders --type E6 --rank 6",
     "2e46bc02857e11a06a6fe421a592c2ace66f2734597b593674b0211b80a0b957"),
])
def test_torus_orders_stdout_is_pinned(argv, digest, capsys):
    # the D10 digest is the one the benchmark pins; E6 pins the torus
    # polynomials read off the reconstructed class representatives
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("--rank-cap 60 --epsilon 1/1000 --which both",
     "fe4f510ee50dd0bf727c1dedc0d5c7a5f416ef15ea136173bcf578b528c1acee"),
    ("--rank-cap 16 --epsilon 1/20 --which both",
     "388363b7611fe1035a6e741e253e9a82f99c8f5e50ce4f4bc5fd23dac1c4f527"),
    ("--mode growing-rank --epsilon 1/100 --which both",
     "f90e30025e76775201bc3b26393ce92da3d89332cc81ac91ada3388e105b8cb7"),
])
def test_threshold_stdout_is_pinned(argv, digest, capsys):
    # the rank-16 and growing-rank searches are the two the benchmark runs
    code, out, _ = run_cli(["bounds", "--check", "threshold", *argv.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    "zero-density --n 2 --q 4001",
    "zero-density --n 2 --q 9973",
    "zero-density --group sl --n 2 --q 9973",
    "bounds --check sl --n 2 --q 4001",
    "bounds --check sl --n 2 --q 9973",
    "lie-fourier --n 2 --q 2003",
    "lie-fourier --n 3 --q 7",
    "kl-verify --n 2 --q 2003",
    "kl-verify --n 3 --q 7",
])
def test_an_oversize_request_is_refused_before_the_field_is_built(argv, capsys, monkeypatch):
    # the group order, the Fourier table and the matrix space are predicted
    # from q alone; F_q's q x q tables take tens of seconds at q ~ 10^4
    from charzero import ffield

    def unreachable(self):
        raise AssertionError("the field tables were built")

    monkeypatch.setattr(ffield.Field, "_build_tables", unreachable)
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 2 and out == ""
    assert "cap" in err or "supported maximum" in err


def test_gln_structure_stdout_is_pinned(capsys):
    # n = 9: the largest Weyl centralizer, at lambda = 1^9, has 9! elements
    code, out, _ = run_cli(["gln-structure", "--n", "9", "--q", "2"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "351960d4dfe656d20d7f5863fc572358a93595598c2fb964ff5596b6d79fc5c1")


@pytest.mark.parametrize("n", [10, 11])
def test_gln_structure_refuses_a_weyl_centralizer_over_the_cap(n, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the torus inventory was reached")

    monkeypatch.setattr(cli, "torus_inventory", unreachable)
    start = time.perf_counter()
    code, out, err = run_cli(["gln-structure", "--n", str(n), "--q", "2"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"order {n}! exceeds the cap" in err


# one invocation of every subcommand; --cap 5 is below every group order they reach
CAP_ARGV = {
    "weyl-stats": ["--type", "A", "--rank", "3"],
    "torus-orders": ["--type", "A", "--rank", "3"],
    "gln-structure": ["--n", "2", "--q", "3"],
    "char-table": ["--n", "2", "--q", "3"],
    "zero-density": ["--n", "2", "--q", "3"],
    "lie-fourier": ["--n", "2", "--q", "3"],
    "kl-verify": ["--n", "2", "--q", "3"],
    "bounds": ["--check", "sl", "--n", "2", "--q", "3"],
    "trend": ["--n", "2", "--q", "3"],
}


@pytest.mark.parametrize("command", sorted(CAP_ARGV))
def test_cap_is_accepted_only_where_it_is_read(command, capsys):
    argv = [command, *CAP_ARGV[command], "--cap", "5"]
    if command in ("char-table", "zero-density", "bounds"):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "over the enumeration cap 5" in err
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["char-table", "zero-density", "bounds"])
def test_the_cap_environment_variable_is_still_read(command, capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "5")
    code, out, err = run_cli([command, *CAP_ARGV[command]], capsys)
    assert code == 2 and out == ""
    assert "over the enumeration cap 5" in err


@pytest.mark.parametrize("n", [4, 5])
def test_bounds_sl_refuses_n_above_three_before_enumerating(n, capsys, monkeypatch):
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    code, out, err = run_cli(["bounds", "--check", "sl", "--n", str(n), "--q", "2",
                              "--cap", str(10**8)], capsys)
    assert code == 2 and out == ""
    assert "limited to n <= 3" in err


def test_an_sl_group_with_no_dense_code_index_is_refused_before_its_tables(capsys, monkeypatch):
    """SL_4(F_4) has 987 033 600 elements, under the raised cap, but its
    4^16 codes exceed 4 |G| and no shorter key serves n = 4."""
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("field tables or the closure were reached")

    monkeypatch.setattr(matgroup, "field_for_order", unreachable)
    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    code, out, err = run_cli(["zero-density", "--group", "sl", "--n", "4", "--q", "4",
                              "--cap", "1000000000"], capsys)
    assert code == 2 and out == ""
    assert "no dense code index for a group of order 987033600" in err


@pytest.mark.parametrize("argv", [["--check", "threshold"], ["--check", "lower", "--n", "2", "--q", "3"]],
                         ids=["threshold", "lower"])
def test_bounds_refuses_the_cap_where_it_enumerates_no_group(argv, capsys):
    code, out, err = run_cli(["bounds", *argv, "--cap", "1"], capsys)
    assert code == 2 and out == ""
    assert "--cap applies to --check sl only" in err


def test_bounds_sl_runs_under_a_cap_that_admits_the_group(capsys):
    code, out, _ = run_cli(["bounds", "--check", "sl", "--n", "2", "--q", "3", "--cap", "24"], capsys)
    assert code == 0 and json.loads(out)["group"] == "sl2(F3)"


@pytest.mark.parametrize("command", ["zero-density", "char-table"])
def test_sl1_is_the_trivial_group(command, capsys):
    """SL_1 has no transvections to generate it: the closure of no
    generators is {I}, whose table is [1] with no zeros."""
    code, out, err = run_cli([command, "--group", "sl", "--n", "1", "--q", "5"], capsys)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["group"] == "sl1(F5)"
    if command == "zero-density":
        assert (obj["zeros"], obj["entries"]) == (0, 1)
    else:
        assert obj["degrees"] == [1] and obj["values"] == [[{"coeffs": [1], "conductor": 1,
                                                             "is_zero": False}]]
        assert obj["orthogonal"] is True


def test_bounds_sl_refuses_n_below_two_before_enumerating(capsys, monkeypatch):
    from charzero import matgroup

    def unreachable(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(matgroup, "enumerate_group", unreachable)
    code, out, err = run_cli(["bounds", "--check", "sl", "--n", "1", "--q", "2"], capsys)
    assert code == 2 and out == ""
    assert "n >= 2" in err and "Traceback" not in err


def test_a_zero_denominator_epsilon_exits_two(capsys):
    code, out, err = run_cli(["bounds", "--check", "threshold", "--epsilon", "1/0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err


def test_zero_density_and_char_table_leave_numpy_random_unimported():
    """NumPy loads `numpy.random` only on first use, and importing it raises
    the peak RSS of a run by about 1.8 MiB; the Dixon start rows come from
    an integer hash instead.  Checked in a fresh interpreter."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys\n"
              "from charzero.cli import main\n"
              "main(['zero-density', '--n', '2', '--q', '5'])\n"
              "main(['char-table', '--n', '2', '--q', '4'])\n"
              "sys.stderr.write(str('numpy.random' in sys.modules))\n")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert '"entries": 576' in run.stdout and '"orthogonal": true' in run.stdout
    assert run.stderr == "False"
