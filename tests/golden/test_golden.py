"""Every CLI verb on the committed inputs reproduces the recorded corpus.

A deliberate output change regenerates the corpus with ``regen.py`` and
lists each changed file, and why, in CHANGES.md.
"""

import json

import pytest

import regen
from gapsmith import pointset as ps
from gapsmith import structure as st

INPUTS = regen.read_inputs()
with open(regen.MANIFEST, encoding="utf-8") as fh:
    MANIFEST = {row.pop("input"): row for row in map(json.loads, fh)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("row", INPUTS, ids=[row["name"] for row in INPUTS])
def test_cli_outputs_match_the_corpus(row, workdir):
    runs = regen.run_input(row, workdir)
    if row["group"] in regen.FULL_GROUPS:
        for verb, (_, out_bytes, trace_bytes) in runs.items():
            out_path, trace_path = regen.full_paths(row["name"], verb)
            assert out_bytes.decode() == out_path.read_text(), verb
            recorded = trace_path.read_bytes() if trace_path.exists() else None
            assert trace_bytes == recorded, verb
    assert {verb: run[0] for verb, run in runs.items()} == MANIFEST[row["name"]]


def test_every_fail_reason_is_reported():
    # A reason that no committed set reports is a branch nothing pins down.
    reported = {
        ctx.failure.reason
        for row in INPUTS
        if row["kind"] == "set"
        for ctx in st.check_all(ps.from_json_dict(row["data"])).per_gap
        if ctx.failure is not None
    }
    assert reported == set(st.FailReason)
