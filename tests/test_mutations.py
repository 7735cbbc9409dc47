"""Seeded mutations of the demo document through the command line. Each
copy of the demo at 8x4 has one to three leaves replaced by an odd value
or deleted; every run command then exits 0, 1 or 2 with a message and
no traceback. Exit 0 prints a finite report; any other exit writes
nothing under --out. A new input rule needs a mutation that fails here."""

import math
import os
import random
import re
from collections import Counter

import pytest
import yaml

from stackemu.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMO = os.path.join(ROOT, "scenarios", "demo_2layer.yaml")
SEED, DOCUMENTS = 23, 100
COMMANDS = (["report"], ["validate"], ["steady"], ["pdn"], ["place-sensors"])
DELETE = object()
VALUES = (math.nan, math.inf, -math.inf, -1, 0, 1e300, 2.5, True, "x", None,
          [], {}, 10 ** 20, DELETE)
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _leaves(node, path=()):
    """Paths to the leaves of a YAML document: scalars and empty
    sections."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def small_demo():
    with open(DEMO) as fh:
        doc = yaml.safe_load(fh)
    doc["grid"] = {"nx": 8, "ny": 4}
    return doc


def mutated_documents(seed: int = SEED, count: int = DOCUMENTS):
    """count copies of the demo at 8x4, each with one to three mutations
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        doc = small_demo()
        for _ in range(rng.randint(1, 3)):
            leaves = list(_leaves(doc))
            if not leaves:
                break
            *parents, key = rng.choice(leaves)
            node = doc
            for p in parents:
                node = node[p]
            value = rng.choice(VALUES)
            if value is DELETE:
                del node[key]
            else:
                node[key] = value
        docs.append(doc)
    return docs


def test_mutations_are_seeded_and_reach_every_section():
    docs, demo = mutated_documents(), small_demo()
    assert docs == mutated_documents()
    assert all(doc != demo for doc in docs)
    changed = {key for doc in docs for key in demo if doc.get(key) != demo[key]}
    assert changed == set(demo)


# Warnings as the command line shows them: printed, not raised.
@pytest.mark.filterwarnings("default")
def test_mutated_demos_exit_cleanly(tmp_path, capsys):
    """Of the seed's documents, 7 make a report (exit 0) and one fails
    in the transient on a source that overflows to inf (exit 2)."""
    exits = Counter()
    for index, doc in enumerate(mutated_documents()):
        run_dir = tmp_path / str(index)
        run_dir.mkdir()
        path = run_dir / "doc.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        for command in COMMANDS:
            out_dir = run_dir / command[0]
            out_dir.mkdir()
            code = main(["--config", str(path), "--out",
                         str(out_dir / "run"), *command])
            captured = capsys.readouterr()
            said = captured.out + captured.err
            where = (index, command, code, said)
            assert code in (0, 1, 2) and "Traceback" not in said, where
            if code == 0:
                assert not NON_FINITE.search(captured.out), where
            else:
                assert said.strip() and os.listdir(out_dir) == [], where
            exits[command[0], code] += 1
    assert exits["report", 0] == 7 and exits["report", 2] == 1, exits
