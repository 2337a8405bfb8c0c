#!/usr/bin/env python3
"""Seeded, self-checking extraction benchmark.

Run from the repository root:

    python3 extractbench/run.py --workload pipeline_mixed --seed 1 \
        --seconds 15 --trace 0

Workloads: ``pipeline_mixed``, ``pipeline_skewed``, ``checkpoint_resume``,
``api_single_doc`` (see README.md). Every run generates its inputs from
``--seed`` into a work dir inside this directory, starts its own Ray
instance (not for ``api_single_doc``), runs whole rounds until at least
``--seconds`` of timed wall are measured, checks every output against the
planted truth, stops every process it started and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). The line before it holds the run's details: host facts,
per-round walls and latency figures; failing documents go to stderr.

It exits non-zero, with the workload, phase and traceback on stderr, only
when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)  # the package under test, from this checkout

import checks  # noqa: E402
import gen  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402

WORK_ROOT = os.path.join(HERE, ".work")

# Input sizes. A round is one pass over the workload's whole input; runs
# measure whole rounds, so every run attempts the same operations.
MIXED_DOCS = 3000
SKEWED_DOCS = 800
GIANTS = 4
GIANT_BYTES = 2_000_000
FILE_ROWS = 250
# checkpoint_resume: a checkpointed run of CKPT_DOCS documents in
# CKPT_PARTITIONS partitions, a crash that loses the last CKPT_REDONE
# partitions, and the resume. The traced runs of the other workloads run
# the same cycle on CKPT_PROBE_DOCS of their own documents.
CKPT_DOCS = 600
CKPT_PROBE_DOCS = 200
CKPT_ROW_GROUP = 25
CKPT_PARTITIONS = 4
CKPT_REDONE = 2
API_PAGES = 2000
WARM_DOCS = 200
# every SAMPLE_EVERY-th document (and every giant) is re-extracted in the
# benchmark process through api.extract_spans and compared span by span
SAMPLE_EVERY = 50
SPLIT_DOCS = 300
STATE_PROBE_DOCS = 40
# the pipeline's giant-document offload threshold (run_extract_pipeline
# passes large_threshold_bytes * 4 = 800 kB to SkewAwareExtractor)
OFFLOAD_BYTES = 800_000
OUT_COLUMNS = ["doc_id", "spans", "error", "platform", "strategy_used"]

E2E_UNITS = {"docs_per_s": "docs/s", "mb_per_s": "MB/s", "op_p50_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class Run:
    """One benchmark process: its phase, work dir, failure tally and
    metrics."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.steal0 = host.steal_s()
        self.phase = "start"
        self.own_s = 0.0
        self.host = self.own(host.host_facts)  # before any other work
        self.setup_s = None
        self.work = os.path.join(WORK_ROOT, f"{self.workload}-{os.getpid()}")
        # short: Ray's socket paths under it must stay within 107 bytes
        self.ray = host.RaySession(os.path.join(HERE, f".r{os.getpid()}"),
                                   ROOT)
        self.attempted = 0
        self.failed = 0
        # checks of the traced run's own probes: they leave ``attempted``
        # and ``failed`` alone (those count the workload's rounds only),
        # and any problem makes the run incorrect
        self.probe_problems: dict = {}
        self.check_s = 0.0  # output checks, outside the timed walls
        self.examples: list = []
        self.detail: dict = {}
        self.layer: dict = {}
        self.watch: host.ProcWatch | None = None

    # ---- bookkeeping ---------------------------------------------------
    def own(self, fn, *a, **kw):
        """The benchmark's own work before set-up ends (host facts, input
        generation): timed apart, so set-up excludes it."""
        t = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            self.own_s += time.perf_counter() - t

    def setup_done(self) -> None:
        self.setup_s = host.process_age_s() - self.own_s

    def count(self, attempted: int, problems: dict) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        for key, probs in problems.items():
            if len(self.examples) < 10:
                self.examples.append({"phase": self.phase, "id": key,
                                      "problems": probs})

    def probe(self, attempted: int, problems: dict) -> None:
        self.probe_problems.update(problems)
        for key, probs in problems.items():
            if len(self.examples) < 10:
                self.examples.append({"phase": self.phase, "id": key,
                                      "problems": probs})

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def rounds(self, one_round) -> list[float]:
        """Whole rounds until their timed walls reach ``--seconds``."""
        walls: list[float] = []
        while sum(walls) < self.seconds:
            walls.append(one_round(len(walls)))
        return walls


# ---- input and output helpers -----------------------------------------

def write_files(docs, out_dir: str, rows_per_file: int = FILE_ROWS) -> str:
    """The corpus as Parquet files in the ``input_hint`` schema."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    for k in range(0, len(docs), rows_per_file):
        pq.write_table(gen.to_table(docs[k:k + rows_per_file]),
                       os.path.join(out_dir, f"part-{k // rows_per_file:05d}"
                                             ".parquet"))
    return out_dir


def write_row_groups(docs, path: str, row_group: int = CKPT_ROW_GROUP) -> str:
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(gen.to_table(docs), path, row_group_size=row_group)
    return path


def read_rows(out_dir: str) -> list[dict]:
    """Every Parquet file under ``out_dir``, read in this process."""
    import pyarrow.parquet as pq

    rows: list[dict] = []
    for dirpath, _, files in sorted(os.walk(out_dir)):
        if os.path.basename(dirpath).startswith("."):
            continue
        for f in sorted(files):
            if f.endswith(".parquet"):
                rows.extend(pq.read_table(os.path.join(dirpath, f),
                                          columns=OUT_COLUMNS).to_pylist())
    return rows


def extract_giants(run: Run, docs) -> dict:
    """``api.extract_spans`` on every giant in this process, timed as
    ``pipelines.giant_extract_s``: single-process extraction of the giants
    alone (an empty loop on workloads without giants)."""
    from magic_content_extractor_ray import api

    giants = [d for d in docs if d.nbytes >= OFFLOAD_BYTES]
    t = time.perf_counter()
    spans = {d.doc_id: api.extract_spans(d.spans, d.url)["spans"]
             for d in giants}
    run.layer["pipelines.giant_extract_s"] = time.perf_counter() - t
    run.layer["pipelines.giant_docs"] = len(giants)
    return spans


def sample_problems(run: Run, docs, rows) -> dict:
    """Pipeline spans against ``api.extract_spans`` in this process, on
    every SAMPLE_EVERY-th document and every giant."""
    from magic_content_extractor_ray import api

    want = extract_giants(run, docs)
    want.update({d.doc_id: api.extract_spans(d.spans, d.url)["spans"]
                 for d in docs[::SAMPLE_EVERY]})
    got = {r["doc_id"]: r["spans"] for r in rows}
    return {doc_id: ["spans differ from api.extract_spans"]
            for doc_id, spans in want.items()
            if doc_id in got and got[doc_id] != spans}


def payload_mb(docs) -> float:
    return sum(d.nbytes for d in docs) / 1e6


# ---- workloads ---------------------------------------------------------

def run_pipeline(run: Run, docs, warm) -> dict:
    """Stored corpus → read_docs → run_extract_pipeline → write_docs, in
    whole rounds over the same input."""
    in_dir = run.own(write_files, docs, run.path("in"))
    warm_dir = run.own(write_files, warm, run.path("warm"))
    run.phase = "setup"
    run.ray.start()
    from magic_content_extractor_ray.pipelines.extract_pipeline import (
        run_extract_pipeline)
    from magic_content_extractor_ray.sources.io import read_docs, write_docs

    def one_pass(src: str, dst: str):
        out = run_extract_pipeline(read_docs(src))
        write_docs(out, dst)  # executes the plan
        return out

    one_pass(warm_dir, run.path("warm-out"))
    run.setup_done()

    run.phase = "measure"
    truth = {d.doc_id: d for d in docs}
    first: dict = {}
    stage: list[dict] = []
    last_rows: list = []
    run.watch.reset_actors()

    def one_round(i: int) -> float:
        nonlocal last_rows
        dst = run.path(f"out-{i}")
        t = time.perf_counter()
        out = one_pass(in_dir, dst)
        wall = time.perf_counter() - t
        if run.trace:
            stage.append(layers.stage_walls(out))
        t = time.perf_counter()
        rows = read_rows(dst)
        probs = checks.check_rows(truth, rows)
        if not first:
            first.update({r["doc_id"]: checks.spans_digest(r["spans"])
                          for r in rows})
            probs.update(sample_problems(run, docs, rows))
        else:
            for k, v in checks.check_same(first, rows).items():
                probs.setdefault(k, v)
        run.count(len(docs), probs)
        last_rows = rows
        shutil.rmtree(dst)
        run.check_s += time.perf_counter() - t
        return wall

    walls = run.rounds(one_round)
    run.detail["round_walls_s"] = [round(w, 4) for w in walls]
    run.detail["docs_per_round"] = len(docs)
    # the rate over every timed round: steadier than one round's, since a
    # round's wall varies with when the actor pool scales up
    rate = len(docs) * len(walls) / sum(walls)
    if run.trace:
        actors = run.watch.peak_actors
        for key in stage[0]:
            run.layer[key] = statistics.median(s[key] for s in stage)
        run.layer["trace.docs_per_s"] = rate
        trace_layers(run, docs, in_dir, last_rows, rate, actors)
    return {"docs_per_s": rate,
            "mb_per_s": rate * payload_mb(docs) / len(docs),
            "op_p50_ms": statistics.median(walls) * 1000}


def simulate_crash(out_dir: str, redo: list[int]) -> str:
    """A crash after the first partitions: the last partitions' outputs and
    manifest rows are gone and a partial temp dir is left behind."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    for p in redo:
        shutil.rmtree(os.path.join(out_dir, f"part={p}"))
    manifest = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest) as f:
        keep = [line for line in f
                if line.strip() and json.loads(line)["partition_id"]
                not in redo]
    with open(manifest, "w") as f:
        f.writelines(keep)
    tmp = os.path.join(out_dir, f".tmp-part-{redo[0]}")
    os.makedirs(tmp)
    pq.write_table(pa.table({"doc_id": ["torn-write"]}),
                   os.path.join(tmp, "partial.parquet"))
    return tmp


def checkpoint_cycle(run: Run, docs, path: str, out: str, count) -> dict:
    """run_checkpointed over the fragment-partitioned stored corpus at
    ``path`` (the documents ``docs``), a simulated crash and the resume.
    ``count(attempted, problems)`` takes the checks: every document of the
    full run's and of the resumed output, the resumed output equal to the
    full run per ``doc_id``, and each manifest's total equal to the rows
    on disk (one operation per manifest). Returns the two calls' walls,
    every partition's wall (timed from the factory's calls: run_checkpointed
    asks for a partition's input when it starts that partition) and the
    lineage records of both calls."""
    from magic_content_extractor_ray.state.checkpoint import (
        load_manifest, make_fragment_table_factory, run_checkpointed)

    inner = make_fragment_table_factory(path)
    marks: list[float] = []

    def factory(p: int, num_partitions: int):
        marks.append(time.perf_counter())
        return inner(p, num_partitions)

    truth = {d.doc_id: d for d in docs}
    redo = list(range(CKPT_PARTITIONS - CKPT_REDONE, CKPT_PARTITIONS))

    def problems() -> tuple[list, dict]:
        rows = read_rows(out)
        probs = checks.check_rows(truth, rows)
        manifest = checks.check_manifest(
            list(load_manifest(out).values()), len(rows))
        if manifest:
            probs["manifest"] = manifest
        return rows, probs

    partition_s: list[float] = []

    def timed() -> tuple[list, float]:
        marks.clear()
        t = time.perf_counter()
        records = run_checkpointed(factory, out,
                                   num_partitions=CKPT_PARTITIONS)
        end = time.perf_counter()
        partition_s.extend(b - a for a, b in zip(marks, marks[1:] + [end]))
        return records, end - t

    full, full_s = timed()
    t = time.perf_counter()
    rows, probs = problems()
    digests = {r["doc_id"]: checks.spans_digest(r["spans"]) for r in rows}
    count(len(docs) + 1, probs)
    tmp = simulate_crash(out, redo)
    run.check_s += time.perf_counter() - t

    resumed, resume_s = timed()
    t = time.perf_counter()
    rows, probs = problems()
    for k, v in checks.check_same(digests, rows).items():
        probs.setdefault(k, v)
    redone = sorted(r["partition_id"] for r in resumed)
    if redone != redo:
        probs.setdefault("manifest", []).append(
            f"resume redid partitions {redone}, not {redo}")
    if os.path.exists(tmp):
        probs.setdefault("manifest", []).append(
            "partial temp dir left after the resume")
    count(len(docs) + 1, probs)
    shutil.rmtree(out)
    run.check_s += time.perf_counter() - t
    return {"full_s": full_s, "resume_s": resume_s,
            "partition_s": partition_s, "full": full, "resumed": resumed}


def state_layers(run: Run, cycles: list[dict]) -> None:
    run.layer.update({
        "state.partitions": CKPT_PARTITIONS,
        "state.partition_wall_s": statistics.median(
            r["wall_s"] for c in cycles for r in c["full"]),
        "state.full_run_s": statistics.median(c["full_s"] for c in cycles),
        "state.resume_s": statistics.median(c["resume_s"] for c in cycles),
        "state.redone_partitions": len(cycles[-1]["resumed"]),
        "state.skipped_partitions":
            CKPT_PARTITIONS - len(cycles[-1]["resumed"])})


def run_checkpoint(run: Run, docs, warm) -> dict:
    """Rounds of: a full checkpointed run into a fresh output dir, a
    simulated crash, and the resume."""
    path = run.own(write_row_groups, docs, run.path("ckpt", "docs.parquet"))
    warm_path = run.own(write_row_groups, warm,
                        run.path("warm", "docs.parquet"))
    run.phase = "setup"
    run.ray.start()
    from magic_content_extractor_ray.state.checkpoint import (
        make_fragment_table_factory, run_checkpointed)

    run_checkpointed(make_fragment_table_factory(warm_path),
                     run.path("warm-out"), num_partitions=1)
    run.setup_done()

    run.phase = "measure"
    cycles: list[dict] = []

    def one_round(i: int) -> float:
        cycles.append(checkpoint_cycle(run, docs, path,
                                       run.path(f"out-{i}"), run.count))
        return cycles[-1]["full_s"] + cycles[-1]["resume_s"]

    walls = run.rounds(one_round)
    # documents completed by the full runs and the resumes (the manifest
    # totals, which the checks hold equal to the rows on disk)
    done = sum(r["num_docs"] for c in cycles for r in c["full"] + c["resumed"])
    rate = done / sum(walls)
    partition_s = [s for c in cycles for s in c["partition_s"]]
    run.detail.update(
        full_run_walls_s=[round(c["full_s"], 4) for c in cycles],
        resume_walls_s=[round(c["resume_s"], 4) for c in cycles],
        resume_s=round(statistics.median(c["resume_s"] for c in cycles), 4),
        partition_walls_s=[round(s, 4) for s in partition_s],
        docs_per_round=len(docs))
    if run.trace:
        state_layers(run, cycles)
        run.layer["trace.docs_per_s"] = rate
        trace_layers(run, docs, path, None, None, None)
    return {"docs_per_s": rate,
            "mb_per_s": rate * payload_mb(docs) / len(docs),
            "op_p50_ms": statistics.median(partition_s) * 1000}


def run_api(run: Run, pages, warm) -> dict:
    """One caller, closed loop, no Ray: extract_html(..., "markdown") on
    full HTML pages."""
    htmls = run.own(lambda: [p.html() for p in pages])
    warm_html = run.own(lambda: [p.html() for p in warm])
    run.phase = "setup"
    from magic_content_extractor_ray import api

    for p, h in zip(warm, warm_html):
        api.extract_html(h, p.url, output_format="markdown")
    run.setup_done()

    run.phase = "measure"
    lat: list[float] = []

    def one_round(i: int) -> float:
        probs = {}
        start = len(lat)
        pc = time.perf_counter
        for p, h in zip(pages, htmls):
            t = pc()
            try:
                out = api.extract_html(h, p.url, output_format="markdown")
            except (ValueError, RuntimeError) as e:
                lat.append(pc() - t)
                probs[p.doc_id] = [f"{type(e).__name__}: {e}"]
                continue
            lat.append(pc() - t)
            bad = checks.check_markdown(p, out["content"])
            if bad:
                probs[p.doc_id] = bad
        run.count(len(pages), probs)
        return sum(lat[start:])

    walls = run.rounds(one_round)
    lat_sorted = sorted(lat)
    n = len(lat)
    run.detail["calls"] = n
    run.detail["doc_p50_ms"] = round(statistics.median(lat) * 1000, 4)
    if n >= 1000:  # at least ten samples beyond the 99th percentile
        run.detail["doc_p99_ms"] = round(
            lat_sorted[int(0.99 * n)] * 1000, 4)
    rate = n / sum(walls)
    if run.trace:
        run.layer["trace.docs_per_s"] = rate
        # the Ray layers, measured on the same documents
        path = write_files(pages, run.path("in"))
        run.ray.start()
        trace_layers(run, pages, path, None, None, None)
    return {"docs_per_s": rate,
            "mb_per_s": len(walls) * sum(map(len, htmls)) / 1e6 / sum(walls),
            "op_p50_ms": statistics.median(lat) * 1000}


# ---- traced run: per-layer metrics ------------------------------------

def trace_layers(run: Run, docs, stored: str, rows, rate, actors) -> None:
    """Per-layer metrics on the workload's own documents. ``rows`` are the
    workload's output rows (None: extract them here); ``rate`` and
    ``actors`` the pipeline rounds' docs/s and extract actors (None: run
    one probe round)."""
    from magic_content_extractor_ray.pipelines.extract_pipeline import (
        run_extract_pipeline)
    from magic_content_extractor_ray.sources.io import read_docs, write_docs
    from magic_content_extractor_ray.state.checkpoint import (
        make_fragment_table_factory, run_checkpointed)

    if "pipelines.giant_docs" not in run.layer:  # no sample check ran
        extract_giants(run, docs)
    run.phase = "trace: per-document split"
    small = [d for d in docs if d.nbytes < OFFLOAD_BYTES]
    split = layers.doc_split(small[:SPLIT_DOCS])
    run.layer.update(split)
    bad = checks.check_phase_sum(layers.phase_sum(split),
                                 split["extractors.extract_document_ms"],
                                 layers.PHASE_SUM_TOLERANCE)
    run.probe(1, {"phase-sum": bad} if bad else {})

    run.phase = "trace: sources"
    if rate is None:  # one probe round: stage walls and extract actors
        run.watch.reset_actors()
        t = time.perf_counter()
        out = run_extract_pipeline(read_docs(stored))
        write_docs(out, run.path("probe-out"))
        rate = len(docs) / (time.perf_counter() - t)
        actors = run.watch.peak_actors
        run.layer.update(layers.stage_walls(out))
    t = time.perf_counter()
    read_docs(stored).materialize()
    run.layer["sources.read_s"] = time.perf_counter() - t
    materialized = run_extract_pipeline(read_docs(stored)).materialize()
    t = time.perf_counter()
    write_docs(materialized, run.path("write-probe"))
    run.layer["sources.write_s"] = time.perf_counter() - t
    if rows is None:
        rows = read_rows(run.path("write-probe"))
    run.layer.update(layers.output_counts(rows))

    actors = max(actors, 1)
    run.layer["pipelines.extract_actors"] = actors
    run.layer["pipelines.efficiency"] = rate / (
        split["extractors.ceiling_docs_per_s"] * actors)
    run.detail["efficiency_bases"] = {
        "pipeline_docs_per_s": rate,
        "ceiling_docs_per_s": split["extractors.ceiling_docs_per_s"],
        "extract_actors": actors}

    run.phase = "trace: state"
    small = small[:CKPT_PROBE_DOCS]
    probe = write_row_groups(small[:STATE_PROBE_DOCS],
                             run.path("state", "docs.parquet"))
    t = time.perf_counter()
    run_checkpointed(make_fragment_table_factory(probe),
                     run.path("state-out"), num_partitions=1)
    run.layer["state.partition_fixed_s"] = time.perf_counter() - t
    if "state.partitions" not in run.layer:  # not checkpoint_resume
        run.phase = "trace: checkpoint crash and resume"
        path = write_row_groups(small, run.path("ckpt", "docs.parquet"))
        state_layers(run, [checkpoint_cycle(run, small, path,
                                            run.path("ckpt-out"),
                                            run.probe)])


WORKLOADS = {
    "pipeline_mixed": lambda r: run_pipeline(
        r, r.own(gen.make_corpus, r.seed, MIXED_DOCS),
        r.own(gen.make_corpus, r.seed, WARM_DOCS, start=MIXED_DOCS)),
    "pipeline_skewed": lambda r: run_pipeline(
        r, r.own(skewed_corpus, r.seed),
        r.own(gen.make_corpus, r.seed, WARM_DOCS, start=SKEWED_DOCS)),
    "checkpoint_resume": lambda r: run_checkpoint(
        r, r.own(gen.make_corpus, r.seed, CKPT_DOCS),
        r.own(gen.make_corpus, r.seed, WARM_DOCS, start=CKPT_DOCS)),
    "api_single_doc": lambda r: run_api(
        r, r.own(gen.make_pages, r.seed, API_PAGES),
        r.own(gen.make_pages, r.seed, 20, start=API_PAGES * 2)),
}


def skewed_corpus(seed: int):
    """The mixed corpus with GIANTS multi-MB forum threads placed next to
    each other in the middle (one crawl shard of a heavy forum)."""
    docs = gen.make_corpus(seed, SKEWED_DOCS)
    giants = [gen.make_giant(seed, SKEWED_DOCS + WARM_DOCS + i, GIANT_BYTES)
              for i in range(GIANTS)]
    mid = SKEWED_DOCS // 2
    return docs[:mid] + giants + docs[mid:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(args)
    result = None
    try:
        with host.ProcWatch() as watch:
            run.watch = watch
            e2e = WORKLOADS[args.workload](run)
            run.phase = "shutdown"
            run.detail["measured_s"] = round(host.process_age_s(), 3)
            run.detail["check_s"] = round(run.check_s, 3)
            watch.sample()
            run.ray.stop()
            run.detail["signalled"] = host.stop_descendants(watch.seen)
        e2e["setup_s"] = run.setup_s
        e2e["peak_rss_mb"] = watch.peak_rss / 2**20
        run.detail.update(host=run.host, own_s=round(run.own_s, 4),
                          steal_s=round(host.steal_s() - run.steal0, 2),
                          ray_temp_dir=run.ray.temp_dir,
                          ray_start_s=run.ray.start_s)
        if run.trace:
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in sorted(run.layer.items())}
        else:
            metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]}
                       for k in E2E_UNITS}
        run.detail["run_wall_s"] = round(host.process_age_s(), 3)
        result = {"correct": run.failed == 0 and not run.probe_problems,
                  "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
    except Exception:
        print(f"extractbench: workload {args.workload} failed in phase "
              f"'{run.phase}'", file=sys.stderr)
        traceback.print_exc()
    finally:
        run.ray.stop()
        host.stop_descendants(run.watch.seen if run.watch else {})
        run.ray.remove_temp_dir()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if result is None:
        return 1
    for ex in run.examples:
        print(f"extractbench: failed {json.dumps(ex)[:400]}", file=sys.stderr)
    print(json.dumps({"detail": run.detail}))
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("docs_per_s"):
        return "docs/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "pipelines.efficiency":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
