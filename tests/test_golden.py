"""Pinned outputs: the sha256 of what the package writes for the benchmark's shapes and for
one run of each learner on each delay kind, kept in ``golden/digests.json``.

The digests come from ``scripts/compare_outputs.py``'s hashing functions, with which
``python3 scripts/compare_outputs.py --write-golden src`` rewrites the file; a change
that alters any output bit fails here unless it rewrites the file on purpose.  The
float bits are those of the NumPy build the file was written with (NumPy 2.4 on
x86-64, AVX-512 kernels); another build, or another CPU's kernels, may round a reduction
or a transcendental differently, so a mismatch names the host's kernels.
"""

import importlib.util
import json
import os
import pathlib
import re

import numpy as np

from delayed_oco import harness, learners
from delayed_oco.delay import KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def host_kernels() -> str:
    """NumPy's dispatch targets for float64 ``exp`` and ``log`` and ``OPENBLAS_CORETYPE``,
    the kernels the digests' bits depend on."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy before 2.0
        targets = "unknown (no numpy.lib.introspect)"
    else:
        targets = ", ".join(f"{name} {kernel['current']}" for name, signatures in opt_func_info(
            func_name="^(exp|log)$", signature="float64").items()
            for kernel in signatures.values())
    return (f"written on AVX-512 kernels; this host dispatches float64 {targets}, and "
            f"OPENBLAS_CORETYPE is {os.environ.get('OPENBLAS_CORETYPE', 'unset')}")


def test_outputs_match_their_golden_digests():
    want = json.loads(compare_outputs.GOLDEN.read_text())
    got = compare_outputs.golden_digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == [], host_kernels()


def test_a_golden_mismatch_names_the_host_kernels(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    message = host_kernels()
    assert message.endswith("OPENBLAS_CORETYPE is Haswell")
    assert re.search(r"float64 exp \S+, log \S+,", message) or \
        not hasattr(np.lib, "introspect")  # NumPy before 2.0 names no targets


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
