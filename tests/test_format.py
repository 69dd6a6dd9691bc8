import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from araid.modelfile import (
    ModelFormatError,
    parse_distribution_rows,
    parse_model,
    serialize_model,
    try_parse_model,
)
from araid.resources import drilling_maid_text

from conftest import random_diagram
from test_parse_digest import GARBAGE_WORDS, byte_blobs, garbage_texts


def test_minimal_chance_node_parses():
    d = parse_model("node UC kind=chance domain=riskier,normal\n"
                    "cpt UC | : riskier=0.3,normal=0.7\n")
    assert d.nodes["UC"].payload.rows[()] == (0.3, 0.7)


def test_empty_input_reports_no_nodes():
    diagram, diags = try_parse_model("")
    assert diagram is None
    assert any("no nodes declared" in d.message for d in diags)


def test_row_sum_error_carries_line_number():
    text = ("node UC kind=chance domain=riskier,normal\n"
            "cpt UC | : riskier=0.3,normal=0.6\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    (diag,) = diags
    assert diag.line == 2
    assert "row sums to 0.9" in diag.message


def test_table_diagnostics_carry_their_row_line_number():
    head = ("node P kind=chance domain=a,b\n"
            "cpt P | : a=0.5,b=0.5\n")
    det = head + ("node X kind=deterministic domain=a,b\n"
                  "arc P -> X\n"
                  "det X | P=a : a\n"
                  "det X | P=b : zz\n")
    cpt = head + ("node X kind=chance domain=a,b\n"
                  "arc P -> X\n"
                  "cpt X | P=a : a=0.5,b=0.5\n"
                  "cpt X | P=c : a=0.5,b=0.5\n"
                  "cpt X | P=b : a=0.5,b=0.5\n")
    for text, message in ((det, "row ('b',) outputs 'zz', not in domain"),
                          (cpt, "row for unknown parent tuple ('c',)")):
        diagram, diags = try_parse_model(text)
        assert diagram is None
        (diag,) = diags
        assert diag.line == 6 and message in diag.message, diag


def test_chance_rows_without_a_domain_are_diagnosed():
    diagram, diags = try_parse_model("node X kind=chance\ncpt X | : a=1.0\n")
    assert diagram is None
    assert [d.line for d in diags] == [1, 2]
    assert "node 'X' needs a domain" in diags[0].message


def test_unknown_keyword_and_undeclared_reference():
    diagram, diags = try_parse_model("frobnicate x\n")
    assert diagram is None and "unknown keyword" in diags[0].message

    text = ("node A kind=chance domain=a\n"
            "cpt A | : a=1.0\n"
            "arc GHOST -> A\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    assert any("undeclared node 'GHOST'" in d.message for d in diags)


def test_duplicate_and_missing_rows():
    text = ("node P kind=chance domain=a,b\n"
            "cpt P | : a=0.5,b=0.5\n"
            "node X kind=chance domain=a,b\n"
            "arc P -> X\n"
            "cpt X | P=a : a=1.0,b=0.0\n"
            "cpt X | P=a : a=1.0,b=0.0\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    messages = " / ".join(d.message for d in diags)
    assert "duplicate row" in messages
    assert "incomplete table" in messages


def test_row_before_declaration_is_an_error():
    text = ("cpt X | : a=1.0\n"
            "node X kind=chance domain=a\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    assert any("must follow their node declaration" in d.message for d in diags)


def test_malformed_number():
    text = ("node X kind=chance domain=a,b\n"
            "cpt X | : a=0.5,b=zebra\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    assert any("malformed number 'zebra'" in d.message for d in diags)


def test_diagnostics_are_stable():
    text = ("node X kind=chance domain=a,b\n"
            "cpt X | : a=0.9,b=0.2\n"
            "arc GHOST -> X\n"
            "banana\n")
    _, first = try_parse_model(text)
    _, second = try_parse_model(text)
    assert first == second
    assert [d.line for d in first] == sorted(d.line for d in first)


def test_drilling_round_trip_identity(drilling):
    text = serialize_model(drilling)
    again = parse_model(text)
    assert again == drilling
    assert serialize_model(again) == text


def test_shipped_model_file_is_canonical():
    text = drilling_maid_text()
    assert serialize_model(parse_model(text)) == text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_money=st.booleans())
def test_round_trip_on_random_diagrams(seed, with_money):
    d = random_diagram(np.random.default_rng(seed), with_money=with_money)
    text = serialize_model(d)
    again = parse_model(text)
    assert again == d
    assert serialize_model(again) == text


def test_round_trip_preserves_table_bits(drilling):
    again = parse_model(serialize_model(drilling))
    for nid, node in drilling.nodes.items():
        other = again.nodes[nid]
        if hasattr(node.payload, "rows") and node.payload is not None:
            assert other.payload.rows == node.payload.rows  # bit-equal floats


def assert_read_cleanly(text):
    """Both readers either succeed or report diagnostics; neither fails inside.
    try_parse_model contains any exception as an `internal parser error`
    diagnostic, so such a diagnostic is a parser fault, not a clean report."""
    diagram, diags = try_parse_model(text)
    assert (diagram is None) == bool(diags)
    assert not [d for d in diags if d.message.startswith("internal parser error")]
    try:
        parse_distribution_rows(text)
    except ModelFormatError as exc:
        assert exc.diagnostics


def test_fuzz_random_bytes_never_raise():
    for blob in byte_blobs():
        assert_read_cleanly(blob)


def test_fuzz_structured_garbage_never_raises():
    for text in garbage_texts():
        assert_read_cleanly(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.binary(),
                 st.lists(st.sampled_from(GARBAGE_WORDS)).map(" ".join)))
def test_fuzz_any_text_or_bytes_reads_cleanly(text):
    assert_read_cleanly(text)


def test_malformed_text_reads_in_linear_time():
    # every line is reported with a column, which once re-split the whole text
    text = "\n".join(f"cpt N{i} | : a=zebra" for i in range(20_000))
    start = time.perf_counter()
    diagram, diags = try_parse_model(text)
    assert time.perf_counter() - start < 2.0
    assert diagram is None and len(diags) == 20_000
    start = time.perf_counter()
    with pytest.raises(ModelFormatError) as raised:
        parse_distribution_rows(text)
    assert time.perf_counter() - start < 2.0
    assert len(raised.value.diagnostics) == 20_000


def test_an_incomplete_table_is_checked_from_its_rows():
    # 2**30 parent tuples: the check must count the missing rows, not list them
    parents = [f"P{i}" for i in range(30)]
    text = "".join(f"node {p} kind=chance domain=a,b\ncpt {p} | : a=0.5,b=0.5\n" for p in parents)
    text += "node X kind=chance domain=a,b\n" + "".join(f"arc {p} -> X\n" for p in parents)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        diagram, diags = try_parse_model(text)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diagram is None
    (diag,) = diags
    assert diag.message == (f"incomplete table: node 'X' missing {2**30} row(s), "
                            f"the first {('a',) * 30}")
    assert elapsed < 0.5
    assert peak < 1 << 20


@pytest.mark.parametrize("form, given_param, missing", [
    ("linear", "offset=1", "scale"),
    ("linear", "scale=2", "offset"),
    ("power_root", "root=2", "scale"),
    ("power_root", "scale=2", "root"),
])
def test_a_missing_value_parameter_is_named(form, given_param, missing):
    text = ("agent D kind=defender\n"
            "node X kind=chance domain=a,b money=1,2\n"
            "cpt X | : a=0.5,b=0.5\n"
            "node V kind=value agent=D\n"
            "arc X -> V\n"
            f"value V form={form} {given_param}\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    assert [(d.line, d.message) for d in diags] == [
        (6, f"value node 'V': form={form} needs {missing}=")]


def test_a_display_name_the_serializer_cannot_write_is_refused():
    text = ("agent D kind=defender name=a|b\n"
            "node X kind=chance domain=a,b\n"
            "cpt X | : a=0.5,b=0.5\n")
    diagram, diags = try_parse_model(text)
    assert diagram is None
    assert [(d.line, d.column, d.message) for d in diags] == [
        (1, 28, "malformed display name 'a|b'")]


def test_parse_distribution_rows():
    text = ("# beliefs\n"
            "cpt DT | : avoid=0.0,share=0.0,accept=1.0\n"
            "cpt DR | : continue=1.0,stop=0.0\n")
    beliefs = parse_distribution_rows(text)
    assert beliefs == {"DT": {"avoid": 0.0, "share": 0.0, "accept": 1.0},
                       "DR": {"continue": 1.0, "stop": 0.0}}
    with pytest.raises(ModelFormatError):
        parse_distribution_rows("node X kind=chance\n")


@pytest.mark.parametrize("text, line, message", [
    ("cpt DR | : continue=0.7,continue=0.5,stop=0.5\n", 1, "outcome repeats label 'continue'"),
    ("cpt DR | : continue=1.0,stop=0.0\n"
     "cpt DT | : avoid=0.0,share=0.0,accept=1.0\n"
     "cpt DR | : continue=0.0,stop=1.0\n", 3, "duplicate row for node 'DR'"),
], ids=["repeated-label", "repeated-row"])
def test_distribution_rows_reject_repeats(text, line, message):
    with pytest.raises(ModelFormatError) as raised:
        parse_distribution_rows(text)
    (diag,) = raised.value.diagnostics
    assert diag.line == line
    assert message in diag.message


def test_one_leading_byte_order_mark_is_no_text():
    text, mark = drilling_maid_text(), "\ufeff"
    stated = serialize_model(parse_model(text))
    for marked in (mark + text, (mark + text).encode()):
        d, diags = try_parse_model(marked)
        assert diags == [] and serialize_model(d) == stated
    rows = "cpt DR | : continue=1.0,stop=0.0\n"
    for marked in (mark + rows, (mark + rows).encode()):
        assert parse_distribution_rows(marked) == {"DR": {"continue": 1.0, "stop": 0.0}}
    # a second mark is text
    _, diags = try_parse_model(2 * mark + text)
    assert (diags[0].line, diags[0].message) == (1, f"unknown keyword {mark + 'agent'!r}")


SCORED_MODEL = ("agent def kind=defender\n"
                "node C kind=chance domain=lo,hi money=0,10\n"
                "cpt C | : lo=0.5,hi=0.5\n"
                "node V kind=value agent=def\n"
                "arc C -> V\n"
                "value V form=linear scale=10 offset=1\n"
                "node U kind=utility agent=def\n"
                "arc V -> U\n"
                "utility U weights V=1\n")


@pytest.mark.parametrize("extra, line, column, message", [
    ("value V form=table | C=lo : 0.5", 10, 1, "conflicting value forms for 'V'"),
    ("utility U weights V=1", 10, 9, "duplicate utility statement for 'U'"),
    # named at the node's declaration
    ("utility C weights V=1", 2, 1, "weights given for non-utility node 'C'"),
], ids=["conflicting-value-forms", "duplicate-utility", "weights-on-non-utility"])
def test_a_misplaced_value_or_utility_statement_is_named(extra, line, column, message):
    assert try_parse_model(SCORED_MODEL)[1] == []
    diagram, diags = try_parse_model(SCORED_MODEL + extra + "\n")
    assert diagram is None
    assert [(d.line, d.column, d.message) for d in diags] == [(line, column, message)]
