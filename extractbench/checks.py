"""Output checks against planted truth and properties the method must have.

Each check returns problems keyed by ``doc_id`` (or a list of problems for
whole-run properties); an empty result means the check passed. A document
with any problem counts as one failed operation; the run goes on.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

# the shape of gen's boilerplate tokens: B<12 digits>X<4 digits>
_BOILER_RE = re.compile(r"B\d{12}X\d{4}")


def _ordered(spans: list[dict]) -> list[dict]:
    return sorted(spans, key=lambda s: s["offset"])


def tokens_in_order(text: str, tokens: list[str]) -> str | None:
    """The first token missing from ``text`` or found out of order."""
    pos = 0
    for tok in tokens:
        i = text.find(tok, pos)
        if i < 0:
            return tok
        pos = i + len(tok)
    return None


def leaked(doc, text: str) -> list[str]:
    """The document's boilerplate tokens found in ``text`` (one scan)."""
    found = set(_BOILER_RE.findall(text))
    return [t for t in doc.boiler if t in found]


def doc_problems(doc, spans: list[dict]) -> list[str]:
    """Planted-truth and span-contract problems of one extracted document:
    dense offsets, main tokens in order, no boilerplate token, media refs
    in planted order."""
    probs = []
    if [s["offset"] for s in spans] != list(range(len(spans))):
        probs.append("offsets are not dense from 0")
    ordered = _ordered(spans)
    text = "\n".join(s["text"] or "" for s in ordered if s["kind"] == "text")
    tok = tokens_in_order(text, doc.main)
    if tok is not None:
        probs.append(f"main token {tok} missing or out of order")
    kept = leaked(doc, "\n".join(f"{s['text']}\n{s['media_ref']}"
                                  for s in spans))
    if kept:
        probs.append(f"boilerplate tokens kept: {kept[:3]}")
    refs = [s["media_ref"] for s in ordered if s["kind"] != "text"]
    if refs != doc.media:
        probs.append(f"media refs {refs[:4]} != planted {doc.media[:4]}")
    return probs


def check_rows(truth: dict, rows: list[dict]) -> dict[str, list[str]]:
    """Every input ``doc_id`` exactly once, with an empty ``error`` and no
    planted-truth problem. ``rows`` are output rows with at least
    ``doc_id``, ``spans`` and ``error``."""
    failed: dict[str, list[str]] = {}
    counts = Counter(r["doc_id"] for r in rows)
    for doc_id in truth:
        if counts[doc_id] == 0:
            failed[doc_id] = ["missing from the output"]
        elif counts[doc_id] > 1:
            failed[doc_id] = [f"appears {counts[doc_id]} times"]
    for doc_id in counts.keys() - truth.keys():
        failed[doc_id] = ["not in the input"]
    for r in rows:
        doc_id = r["doc_id"]
        if doc_id in failed:
            continue
        probs = ([f"error: {r['error']}"] if r["error"]
                 else doc_problems(truth[doc_id], r["spans"]))
        if probs:
            failed[doc_id] = probs
    return failed


def check_markdown(doc, markdown: str) -> list[str]:
    """The API's markdown holds every main token in order and no
    boilerplate token."""
    probs = []
    tok = tokens_in_order(markdown, doc.main)
    if tok is not None:
        probs.append(f"main token {tok} missing or out of order in markdown")
    kept = leaked(doc, markdown)
    if kept:
        probs.append(f"boilerplate tokens in markdown: {kept[:3]}")
    return probs


def spans_digest(spans: list[dict]) -> str:
    h = hashlib.sha1()
    for s in spans:
        h.update(repr((s["kind"], s["text"], s["media_ref"],
                       s["offset"])).encode())
    return h.hexdigest()


def check_same(expected: dict[str, str],
               rows: list[dict]) -> dict[str, list[str]]:
    """Per-``doc_id`` span equality against ``expected`` digests; ids of
    ``expected`` that are missing count as mismatches."""
    got = {r["doc_id"]: spans_digest(r["spans"]) for r in rows}
    return {doc_id: ["spans differ from the reference run"]
            for doc_id, dig in expected.items() if got.get(doc_id) != dig}


def check_manifest(records: list[dict], rows_on_disk: int) -> list[str]:
    """The manifest's ``num_docs`` total equals the rows counted on disk."""
    total = sum(r["num_docs"] for r in records)
    if total != rows_on_disk:
        return [f"manifest num_docs total {total} != {rows_on_disk} rows "
                "on disk"]
    return []


def check_phase_sum(phases_ms: dict[str, float], whole_ms: float,
                    tolerance: float) -> list[str]:
    """The per-document phase times sum to within ``tolerance`` (a share)
    of the separately timed whole."""
    total = sum(phases_ms.values())
    if abs(total - whole_ms) > tolerance * whole_ms:
        return [f"phases sum to {total:.3f} ms against {whole_ms:.3f} ms "
                f"timed whole (tolerance {tolerance:.0%})"]
    return []
