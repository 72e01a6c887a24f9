"""The JSON writer of `cli.emit` against the standard library's encoder."""

import hashlib
import io
import json
from fractions import Fraction

import pytest

from charzero import cli
from charzero.cyclotomic import CycInt


def reference_json(result, rows):
    """The writer it replaced: the pure-Python indent encoder over
    `cli._jsonable`, which must stay byte-identical to `cli.emit`."""
    payload = dict(result)
    if rows is not None:
        payload["rows"] = rows
    return json.dumps(cli._jsonable(payload), indent=2, sort_keys=True) + "\n"


def emitted(result, rows, fmt="json"):
    buf = io.StringIO()
    cli.emit(result, rows, fmt, buf)
    return buf.getvalue()


SUBCOMMANDS = [
    ["weyl-stats", "--type", "B", "--rank", "3"],
    ["torus-orders", "--type", "A", "--rank", "2"],
    ["gln-structure", "--n", "3", "--q", "2"],
    ["char-table", "--n", "2", "--q", "5"],
    ["char-table", "--group", "sl", "--n", "2", "--q", "3"],
    ["zero-density", "--n", "2", "--q", "4"],
    ["lie-fourier", "--n", "2", "--q", "3"],
    ["lie-fourier", "--n", "2", "--q", "4", "--full"],
    ["kl-verify", "--n", "2", "--q", "3"],
    ["bounds", "--check", "lower", "--n", "2", "--q", "5"],
    ["bounds", "--check", "sl", "--n", "2", "--q", "3"],
    ["bounds", "--check", "threshold", "--rank-cap", "4", "--epsilon", "1/10"],
    ["trend", "--n", "2,3", "--q", "2,3,inf"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: " ".join(a))
def test_every_subcommand_writes_the_reference_bytes(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    expected = reference_json(*args.fn(args))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_hand_made_payload_writes_the_reference_bytes():
    z12 = CycInt.zeta(12)
    result = {
        "zero": CycInt.zero(1),
        "zeros": [CycInt.zero(1), CycInt.zero(5), CycInt.zero(12)],
        "mixed": [CycInt.integer(3), z12, CycInt.zeta(5, 2) * -2, [z12, [z12]]],
        "empty_list": [],
        "empty_tuple": (),
        "empty_dict": {},
        "nested": {"b": {"c": [Fraction(1, 3), Fraction(4), {"d": z12}], "a": None}, "a": True},
        "flags": [True, False, None],
        "ratio": Fraction(-7, 2),
        "text": "café \"quoted\"\n",
        "n": -12,
    }
    rows = [{"value": z12, "k": i, "w": [z12, {}]} for i in range(3)] + [{}]
    assert emitted(result, rows) == reference_json(result, rows)
    assert emitted(result, None) == reference_json(result, None)
    assert emitted({}, []) == reference_json({}, [])


@pytest.mark.parametrize(
    "fmt,digest",
    [("csv", "8a36e967fae8f74d3e00fb058f56ca27a485fb5eb350064fa9d0fb1efcb5e504"),
     ("pretty", "dc4975c1a629165502ce7878f5c279d131fe03cb4de2e8675986166334a3224a")],
)
def test_char_table_csv_and_pretty_are_pinned(fmt, digest, capsys):
    assert cli.main(["char-table", "--n", "2", "--q", "3", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
