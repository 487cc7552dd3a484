"""Pinned outputs: the sha256 of what the package writes for the benchmark's shapes and for
one run of each learner on each delay kind, kept in ``golden/digests.json``.

The digests come from ``scripts/compare_outputs.py``'s hashing functions, with which
``python3 scripts/compare_outputs.py --write-golden src`` rewrites the file; a change
that alters any output bit fails here unless it rewrites the file on purpose.  The
float bits are those of the NumPy build the file was written with (NumPy 2.4 on
x86-64); another build may round a reduction differently.
"""

import importlib.util
import json
import pathlib

from delayed_oco import harness, learners
from delayed_oco.delay import KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_outputs_match_their_golden_digests():
    want = json.loads(compare_outputs.GOLDEN.read_text())
    got = compare_outputs.golden_digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_the_pinned_runs_cover_every_delay_kind():
    assert sorted(compare_outputs.DELAYS) == sorted(KINDS)


def test_the_pinned_runs_cover_every_learner():
    assert sorted(compare_outputs.LEARNERS) == sorted(learners.KINDS)


def _pinned_kinds(section):
    return sorted({cfg.get(section, harness._DEFAULTS[section]).get("kind", "auto")
                   for _, cfg in compare_outputs.golden_runs()})


def test_the_pinned_runs_cover_every_environment_kind():
    assert _pinned_kinds("environment") == sorted(harness._SPEC["environment"][1])


def test_the_pinned_runs_cover_every_comparator_kind():
    assert _pinned_kinds("comparators") == sorted(harness._SPEC["comparators"][1])
