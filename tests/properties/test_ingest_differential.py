"""Differential: packet-file ingest against each field's own parser.

``repro query --batch`` converts dotted quads (IP fields) and plain ASCII
integers (other fields) directly, without :meth:`Field.parse_value_set`.
For generated tokens of every field kind, ingest must give the value the
field's parser gives, or fail with exactly the message the parser's
failure leads to, line number included.  The oracle below is the
parser-only ingest, written out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addr.ports import SERVICES
from repro.addr.protocol import PROTOCOLS
from repro.cli import _read_packets
from repro.exceptions import ParseError, ReproError
from repro.fields.schema import Field, FieldKind, FieldSchema, standard_schema

#: One field per kind, plus narrowed domains where a parsed value can
#: fall outside the field although the kind's parser accepts it.
FIELDS = [
    *standard_schema().fields,
    Field("interface", FieldKind.INTERFACE, 1, "I"),
    Field("generic", FieldKind.GENERIC, 300, "G"),
    Field("small_ip", FieldKind.IP, 1000, "X"),
    Field("low_port", FieldKind.PORT, 1023, "L"),
]

_OCTETS = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["00", "01", "010", "", "a", "２", "1_0", "+1"]),
)
_NUMBERS = st.tuples(
    st.sampled_from(["", "0", "00"]), st.integers(0, 1 << 33)
).map(lambda parts: parts[0] + str(parts[1]))
_NAMES = st.sampled_from(
    [*SERVICES, *PROTOCOLS, "SMTP", "Tcp", "any", "all", "*", "nosuchsvc", "none"]
)
#: Tokens never hold whitespace, commas or ``#``: ingest splits on those.
TOKENS = st.one_of(
    st.lists(_OCTETS, min_size=1, max_size=6).map(".".join).filter(bool),
    _NUMBERS,
    _NAMES,
    st.tuples(_NUMBERS, st.sampled_from("-:/|"), _NUMBERS).map("".join),
    st.text(alphabet="0123456789./-|*_+abxTCP２²٣", min_size=1, max_size=12),
)


def _oracle(field: Field, token: str, lineno: int) -> int | str:
    """The value ``token`` names, or the error message ingest must raise."""
    try:
        values = field.parse_value_set(token)
    except ReproError as exc:
        return f"line {lineno}: {field.name}: {exc}"
    if values.count() != 1:
        return (
            f"line {lineno}: {field.name}: {token!r} names"
            f" {values.count()} values, need exactly one"
        )
    return values.min()


def _ingest(schema: FieldSchema, tokens: list[str]) -> tuple[int, ...] | str:
    """Ingest ``tokens`` as line 3 of a packet file."""
    lines = ["# src dst ...\n", "\n", ", ".join(tokens) + "\n"]
    try:
        packets = _read_packets(lines, schema)
    except ParseError as exc:
        return str(exc)
    assert len(packets) == 1
    return packets[0]


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(FIELDS), token=TOKENS)
def test_one_token_matches_the_field_parser(field, token):
    want = _oracle(field, token, 3)
    got = _ingest(FieldSchema([field]), [token])
    assert got == (want if isinstance(want, str) else (want,))


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(TOKENS, min_size=5, max_size=5))
def test_a_line_reports_its_first_bad_field(tokens):
    schema = standard_schema()
    results = [_oracle(field, token, 3) for field, token in zip(schema, tokens)]
    errors = [result for result in results if isinstance(result, str)]
    want = errors[0] if errors else tuple(results)
    assert _ingest(schema, tokens) == want


@pytest.mark.parametrize(
    "token, field_name, value",
    [
        ("10.0.0.1", "src_ip", 167772161),
        ("255.255.255.255", "dst_ip", (1 << 32) - 1),
        ("0080", "dst_port", 80),
        ("smtp", "dst_port", 25),
        ("tcp", "protocol", 6),
        ("17", "protocol", 17),
    ],
)
def test_known_values(token, field_name, value):
    field = standard_schema().field_named(field_name)
    assert _ingest(FieldSchema([field]), [token]) == (value,)
