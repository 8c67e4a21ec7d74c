"""LANGUAGE.md's session-transaction transcripts, replayed.

The two ``A dbpl>``/``B dbpl>`` transcripts of the ``:begin`` /
``:commit`` section run, in order, through two local REPLs on one
shared extern namespace; every line each command prints must match the
documentation.  The first transcript also shows the paper's update
anomaly: B's last ``intern("doc")`` finds the copy A replaced.
"""

import os
import re

from repro.lang.repl import Repl
from repro.obs import events
from repro.persistence.mvcc import TransactionManager

LANGUAGE_MD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "LANGUAGE.md",
)
PROMPT = re.compile(r"^([AB]) dbpl> (.*)$")


def transcripts():
    """Each fenced block holding both prompts, as (who, command,
    expected printed lines) steps."""
    with open(LANGUAGE_MD, encoding="utf-8") as handle:
        blocks = re.findall(r"^```\n(.*?)^```", handle.read(), re.S | re.M)
    parsed = []
    for block in blocks:
        if "A dbpl> " not in block or "B dbpl> " not in block:
            continue
        steps = []
        for line in block.splitlines():
            prompt = PROMPT.match(line)
            if prompt:
                steps.append((prompt.group(1), prompt.group(2), []))
            else:
                steps[-1][2].append(line)
        parsed.append(steps)
    return parsed


def test_two_transcripts_are_documented():
    assert [len(steps) for steps in transcripts()] == [7, 9]


def test_transcripts_replay_on_one_shared_namespace():
    journal = events.enable()
    shared = TransactionManager()
    printed = []
    repls = {
        "A": Repl(shared, writer=printed.append),
        "B": Repl(shared, writer=printed.append),
    }

    def divergent():
        return [
            event
            for event in journal.events(severity="WARN", subsystem="replicating")
            if event.name == "divergent_reintern"
        ]

    def replay(who, command, expected):
        del printed[:]
        repls[who].handle(command)
        assert printed == expected, (who, command)

    first, second = transcripts()
    for index, step in enumerate(first):
        replay(*step)
        # Only B's last intern warns: A replaced the copy B read at its
        # snapshot, so the audit reports the update anomaly once.
        assert len(divergent()) == (1 if index == len(first) - 1 else 0)
    payload = divergent()[0].payload
    assert (payload["handle"], payload["remembered_version"]) == ("doc", 1)
    assert payload["stored_version"] == 2
    for step in second:
        replay(*step)
    assert len(divergent()) == 1
