"""Golden digest of what the `.maid` readers say about a fixed corpus.

The corpus is seeded and built in this file: the structured-garbage texts
and random byte blobs of the fuzz tests, plus one-token mutations of the
shipped model. For each input the digest takes the `(line, column,
message)` of every `try_parse_model` diagnostic, the canonical text of every
diagram that parses, and the result or diagnostics of
`parse_distribution_rows` (fed the mutated model's `cpt` lines, so that it
reads mostly well-formed rows). A parser refactor must keep the digest; a
deliberate change to a message re-pins it and says why in CHANGES.md.
"""
import hashlib
import re

import numpy as np

from araid.modelfile import (
    ModelFormatError,
    parse_distribution_rows,
    serialize_model,
    try_parse_model,
)
from araid.resources import drilling_maid_text

GARBAGE_WORDS = ["node", "cpt", "arc", "agent", "order", "value", "utility", "det",
                 "|", ":", "=", ",", "->", "kind=chance", "domain=a,b", "x", "0.5",
                 "\n", "#", "nan", "inf", "-", "1e309"]

# what a mutated token may become ("" deletes it)
REPLACEMENTS = ["", "nan", "-1", "0", "1e309", "x", "zebra", "form=table", "|", ":",
                "=", ",", "->", "#", "\n", "kind=chance", "a=1.0", "table", "linear",
                "power_root", "indicator", "decision", "weights", "scale", "offset", "root"]

DIGEST = "332b1877503c47a04686edce75315dd996c7538a24f896cca198a4a8fa255785"


def garbage_texts(count=1500, seed=4321):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 40))
        yield " ".join(GARBAGE_WORDS[int(i)]
                       for i in rng.integers(0, len(GARBAGE_WORDS), size=n))


def byte_blobs(count=1500, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(0, 200))
        yield bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


def model_mutations(count=3000, seed=99):
    """Replace, delete, repeat or swap one token of the shipped model."""
    pieces = re.split(r"([\s=,|:]+)", drilling_maid_text())
    words = list(range(0, len(pieces), 2))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        out = list(pieces)
        i = words[int(rng.integers(len(words)))]
        how = int(rng.integers(4))
        if how == 0:
            out[i] = REPLACEMENTS[int(rng.integers(len(REPLACEMENTS)))]
        elif how == 1:
            out[i] = pieces[words[int(rng.integers(len(words)))]]
        elif how == 2:
            out[i] = out[i] + " " + out[i]
        else:
            out[i] = out[i][::-1] if len(out[i]) > 1 else "?"
        yield "".join(out)


def _belief_lines(text):
    return "\n".join(line for line in text.split("\n") if line.startswith("cpt"))


def corpus_digest():
    h = hashlib.sha256()

    def feed(text, beliefs):
        diagram, diags = try_parse_model(text)
        h.update(repr([(d.line, d.column, d.message) for d in diags]).encode())
        if diagram is not None:
            h.update(serialize_model(diagram).encode())
        try:
            h.update(repr(parse_distribution_rows(beliefs)).encode())
        except ModelFormatError as exc:
            h.update(repr([(d.line, d.column, d.message) for d in exc.diagnostics]).encode())

    for text in garbage_texts():
        feed(text, text)
    for blob in byte_blobs():
        feed(blob, blob)
    for text in model_mutations():
        feed(text, _belief_lines(text))
    return h.hexdigest()


def test_parser_corpus_digest_is_pinned():
    assert corpus_digest() == DIGEST
