"""Each output check fires on a corrupted output and passes a clean one.

Run from the repository root: ``python3 -m pytest extractbench -q``.
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402


@pytest.fixture(scope="module")
def extracted():
    """A small corpus, every shape, extracted in process: (truth, rows)."""
    from magic_content_extractor_ray import api

    docs = gen.make_corpus(7, 60)
    assert {d.shape for d in docs} >= {s for s, _ in gen.MIX}
    rows = [api.extract_spans(d.spans, d.url) for d in docs]
    for d, r in zip(docs, rows):
        r["doc_id"] = d.doc_id
    return {d.doc_id: d for d in docs}, rows


def _with_media(truth, rows):
    return next(i for i, r in enumerate(rows)
                if len(truth[r["doc_id"]].media) >= 2)


def test_clean_output_passes(extracted):
    truth, rows = extracted
    assert checks.check_rows(truth, rows) == {}


def test_dropped_doc_fires(extracted):
    truth, rows = extracted
    failed = checks.check_rows(truth, rows[1:])
    assert list(failed) == [rows[0]["doc_id"]]


def test_duplicated_doc_fires(extracted):
    truth, rows = extracted
    failed = checks.check_rows(truth, rows + [rows[3]])
    assert list(failed) == [rows[3]["doc_id"]]


def test_error_row_fires(extracted):
    truth, rows = extracted
    bad = copy.deepcopy(rows)
    bad[2]["error"] = "ValueError: boom"
    assert list(checks.check_rows(truth, bad)) == [bad[2]["doc_id"]]


def test_injected_boilerplate_fires(extracted):
    truth, rows = extracted
    bad = copy.deepcopy(rows)
    doc = truth[bad[5]["doc_id"]]
    bad[5]["spans"][0]["text"] += f" {doc.boiler[0]}"
    failed = checks.check_rows(truth, bad)
    assert "boilerplate" in failed[doc.doc_id][0]


def test_missing_main_token_fires(extracted):
    truth, rows = extracted
    bad = copy.deepcopy(rows)
    doc = truth[bad[4]["doc_id"]]
    for s in bad[4]["spans"]:
        s["text"] = s["text"].replace(doc.main[-1], "")
    assert "main token" in checks.check_rows(truth, bad)[doc.doc_id][0]


def test_reordered_media_fires(extracted):
    truth, rows = extracted
    bad = copy.deepcopy(rows)
    i = _with_media(truth, bad)
    media = [s for s in bad[i]["spans"] if s["kind"] != "text"]
    media[0]["media_ref"], media[1]["media_ref"] = \
        media[1]["media_ref"], media[0]["media_ref"]
    failed = checks.check_rows(truth, bad)
    assert "media refs" in failed[bad[i]["doc_id"]][0]


def test_non_dense_offsets_fire(extracted):
    truth, rows = extracted
    bad = copy.deepcopy(rows)
    bad[6]["spans"][-1]["offset"] += 1
    failed = checks.check_rows(truth, bad)
    assert "offsets" in failed[bad[6]["doc_id"]][0]


def test_altered_span_in_resumed_output_fires(extracted):
    _, rows = extracted
    clean = {r["doc_id"]: checks.spans_digest(r["spans"]) for r in rows}
    resumed = copy.deepcopy(rows)
    resumed[9]["spans"][0]["text"] += " "
    assert checks.check_same(clean, rows) == {}
    assert list(checks.check_same(clean, resumed)) == [rows[9]["doc_id"]]
    assert list(checks.check_same(clean, resumed[:-1])) == [
        rows[9]["doc_id"], rows[-1]["doc_id"]]


def test_manifest_total_fires():
    records = [{"partition_id": 0, "num_docs": 40},
               {"partition_id": 1, "num_docs": 40}]
    assert checks.check_manifest(records, 80) == []
    assert checks.check_manifest(records, 79)


def test_markdown_check_fires(extracted):
    from magic_content_extractor_ray import api

    truth, _ = extracted
    doc = next(d for d in truth.values() if d.shape == "article")
    md = api.extract_html(doc.html(), doc.url)["content"]
    assert checks.check_markdown(doc, md) == []
    assert checks.check_markdown(doc, md.replace(doc.main[0], ""))
    assert checks.check_markdown(doc, md + doc.boiler[-1])


def test_phase_sum_fires():
    phases = {"a": 0.5, "b": 0.4}
    assert checks.check_phase_sum(phases, 1.0, 0.15) == []
    assert checks.check_phase_sum(phases, 1.2, 0.15)
