"""LANGUAGE.md's local ``:requests`` and ``:slow`` transcripts, replayed.

The session prelude and then both transcripts run, in document order,
through one REPL switched on as ``main()`` switches an interactive one
(journal, adaptive estimation, columnar execution), with the feedback
a fresh process starts with: none.  Only the timing
columns are masked — the table rows' ``ms`` column and EXPLAIN
ANALYZE's ``self=``/``total=`` — so request ids, modes, est/act, counter
deltas, flags, queries and every space must match the documentation.
"""

import os
import re

from repro.core import columnar
from repro.lang.repl import Repl
from repro.obs import events
from repro.stats import adaptive, feedback

LANGUAGE_MD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "LANGUAGE.md",
)
PROMPT = "dbpl> "
ROW_MS = re.compile(r"^(\S+ +(?:eval|type|ast|plan|explain)) +\d+\.\d{3} ")
SPAN_MS = re.compile(r"\d+\.\d{3}ms")


def first_block(text, marker):
    """The first fenced block after ``marker``."""
    after = text[text.index(marker):]
    return re.search(r"^```\n(.*?)^```", after, re.S | re.M).group(1)


def steps(block):
    """(command, printed lines) pairs; indented lines continue a command."""
    parsed = []
    for line in block.splitlines():
        if line.startswith(PROMPT):
            parsed.append((line[len(PROMPT):], []))
        elif not parsed[-1][1] and line.startswith("  "):
            parsed[-1] = (parsed[-1][0] + " " + line.strip(), [])
        else:
            parsed[-1][1].append(line)
    return parsed


def mask(lines):
    return [SPAN_MS.sub("#ms", ROW_MS.sub(r"\1 # ", line)) for line in lines]


def documented():
    with open(LANGUAGE_MD, encoding="utf-8") as handle:
        text = handle.read()
    return (
        steps(first_block(text, "The transcripts below share this session prelude")),
        steps(first_block(text, "### `:requests [n]`")),
        steps(first_block(text, "### `:slow [n]`")),
    )


def test_mask_hides_only_timings():
    row = "local-r3       eval        0.137 ok            -       0 ..."
    assert mask([row]) == ["local-r3       eval # ok            -       0 ..."]
    assert mask(["self=0.052ms total=10.057ms drift=2.00x"]) == [
        "self=#ms total=#ms drift=2.00x"
    ]


def test_requests_and_slow_transcripts_replay():
    prelude, requests, slow = documented()
    assert [command for command, __ in prelude][0].startswith("let emp = ")
    assert [len(requests), len(slow)] == [2, 6]
    events.enable()
    adaptive.enable()
    columnar.enable()
    adaptive.ADAPTIVE.clear()
    feedback.clear()
    printed = []
    repl = Repl(writer=printed.append)
    try:
        for command, expected in prelude + requests + slow:
            del printed[:]
            repl.handle(command)
            lines = "\n".join(printed).splitlines()
            assert mask(lines) == mask(expected), command
    finally:
        adaptive.ADAPTIVE.clear()
        feedback.clear()
