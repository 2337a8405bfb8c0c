"""Per-layer measurements for the traced run, taken from outside the
program: around calls into each module's public functions, and from Ray
Data's structured execution stats.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

SPLIT_PHASES = ("functions.spans_to_html_ms", "htmlib.parse_ms",
                "extractors.detect_ms", "extractors.strategy_ms",
                "functions.dom_to_spans_ms")
STRATEGIES = ("xpath", "custom", "content", "heuristic", "body", "layout")
PLATFORMS = ("article", "forum", "weixin", "pdf")
# share by which the summed phases may differ from the separately timed
# extract_document: the split adds a few timer reads per document and
# skips its result-row assembly and exception guard
PHASE_SUM_TOLERANCE = 0.15


def _by_offset(s):
    return s["offset"]


def doc_split(docs, passes: int = 3) -> dict:
    """The sequence ``extract_document`` runs, timed phase by phase on
    ``docs``, beside ``extract_document`` timed whole on the same document
    right before or after it (alternating), so host-speed drift hits both
    alike; then ``ExtractorActor.__call__`` on the same documents. Each
    metric is the median over passes of its per-document mean."""
    from magic_content_extractor_ray.extractors.registry import (
        build_strategies, detect_page_type, extract_document)
    from magic_content_extractor_ray.functions import heuristics as H
    from magic_content_extractor_ray.functions.format import (
        spans_to_markdown)
    from magic_content_extractor_ray.functions.spans import (
        dom_to_spans, spans_to_html)
    from magic_content_extractor_ray.htmlib.dom import parse
    from magic_content_extractor_ray.stages.extract import ExtractorActor

    from gen import to_table

    strategies = build_strategies()
    actor = ExtractorActor()
    chunks = [docs[i:i + 20] for i in range(0, len(docs), 20)]
    tables = [to_table(c) for c in chunks]
    n = len(docs)
    pc = time.perf_counter
    runs: dict[str, list[float]] = {}

    def phases(d, acc: dict) -> None:
        t0 = pc()
        html = spans_to_html(d.spans)
        t1 = pc()
        platform = detect_page_type(d.url, None, d.spans)
        t2 = pc()
        if platform == "pdf":
            out, _ = strategies["pdf"].extract_spans(
                sorted(d.spans, key=_by_offset), d.url)
            nodes = None
            t3 = t4 = t2
            t5 = t6 = pc()
        else:
            root = parse(H.normalize_entities(html))
            t3 = pc()
            if platform == "article":
                platform = detect_page_type(d.url, root, d.spans)
            t4 = pc()
            result = strategies[platform].extract_from_root(root, d.url)
            t5 = pc()
            out, nodes = dom_to_spans(result.main_node, return_nodes=True)
            t6 = pc()
        spans_to_markdown(out, nodes)
        t7 = pc()
        acc["functions.spans_to_html_ms"] += t1 - t0
        acc["extractors.detect_ms"] += (t2 - t1) + (t4 - t3)
        acc["htmlib.parse_ms"] += t3 - t2
        acc["extractors.strategy_ms"] += t5 - t4
        acc["functions.dom_to_spans_ms"] += t6 - t5
        acc["functions.format_ms"] += t7 - t6

    def whole(d, acc: dict) -> None:
        t0 = pc()
        extract_document(d.doc_id, d.spans, d.url, strategies)
        acc["extractors.extract_document_ms"] += pc() - t0

    for _ in range(passes):
        acc = dict.fromkeys(SPLIT_PHASES + ("functions.format_ms",
                                            "extractors.extract_document_ms"),
                            0.0)
        for i, d in enumerate(docs):
            first, second = (phases, whole) if i % 2 else (whole, phases)
            first(d, acc)
            second(d, acc)
        for name, s in acc.items():
            runs.setdefault(name, []).append(s * 1000 / n)
        # ExtractorActor.__call__ against extract_document on the same
        # chunk, back to back
        arrow = 0.0
        for i, (chunk, table) in enumerate(zip(chunks, tables)):
            w = dict.fromkeys(("extractors.extract_document_ms",), 0.0)
            t0 = pc()
            if i % 2:
                actor(table)
            t1 = pc()
            for d in chunk:
                whole(d, w)
            t2 = pc()
            if not i % 2:
                actor(table)
            t3 = pc()
            arrow += (t1 - t0) + (t3 - t2) - (t2 - t1)
        runs.setdefault("stages.arrow_ms", []).append(arrow * 1000 / n)
    out = {k: statistics.median(v) for k, v in runs.items()}
    out["extractors.ceiling_docs_per_s"] = \
        1000.0 / out["extractors.extract_document_ms"]
    return out


def phase_sum(split: dict) -> dict:
    return {k: split[k] for k in SPLIT_PHASES}


def stage_walls(ds) -> dict:
    """Operator walls of an executed (written) dataset, from Ray Data's
    structured stats summary: read, extract and write operators. Fused
    operators are attributed to the layer named first in their chain."""
    write_ds = getattr(ds, "_write_ds", None)
    if write_ds is None:
        raise RuntimeError("dataset was not written; no execution stats")
    summary = write_ds._plan.stats().to_summary()

    def ops(s):
        for p in s.parents:
            yield from ops(p)
        yield from s.operators_stats

    walls = {"pipelines.stage_read_s": 0.0, "pipelines.stage_extract_s": 0.0,
             "pipelines.stage_write_s": 0.0}
    for op in ops(summary):
        name = op.operator_name
        if name.startswith("Read"):
            key = "pipelines.stage_read_s"
        elif "Extractor" in name:
            key = "pipelines.stage_extract_s"
        elif name.startswith("Write"):
            key = "pipelines.stage_write_s"
        else:
            continue
        walls[key] += op.time_total_s
    return walls


def output_counts(rows) -> dict:
    """Documents per strategy and per platform, from output columns."""
    strat = Counter(r["strategy_used"] for r in rows)
    plat = Counter(r["platform"] for r in rows)
    out = {f"extractors.strategy.{s}.docs": strat[s] for s in STRATEGIES}
    out.update({f"extractors.platform.{p}.docs": plat[p] for p in PLATFORMS})
    return out
