"""Seeded input generator with planted truth.

Every document is a pure function of ``(seed, index)``: the same seed gives
the same corpus on every host. Each document carries the truth the output
checks compare against:

- ``main``: unique main-content tokens, in the order the extraction must
  emit them;
- ``boiler``: unique tokens placed in boilerplate the extraction must drop
  (nav, header, sidebar and footer blocks with the reference's noise
  classes, hidden blocks, signatures, weixin account/reward areas, PDF
  running headers and footers);
- ``media``: in-body media refs, in output order.

Only page shapes whose extraction the reference defines without ambiguity
are generated: the main container matches the selector cascade (or, for
``heuristic``, is the only text-heavy container), boilerplate sits outside
it or in blocks a strategy always removes, and the forum and PDF shapes
state their reordering rules (main post first; page, column, y).

The program under test receives only the generated Parquet rows or HTML
pages; the truth stays in the benchmark process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VOCAB = (
    "river stone market signal paper window garden engine thread harbor "
    "lantern orbit silver meadow copper bridge canvas pocket valley whisper "
    "timber cobalt harvest marble anchor falcon summit ember prism quartz "
    "velvet glacier compass tunnel beacon orchard cedar plume basalt delta "
    "feather granite island jasper kettle ledger mosaic nectar oasis pepper "
    "quiver raven saddle tide umber vessel willow yarrow zephyr amber birch "
    "cinder dune estuary fjord grove hollow inlet jungle knoll lagoon mesa "
    "nimbus opal pebble quarry reef shoal tundra upland vista wharf atlas "
    "bloom crest drift field gale haven ivory juniper kelp loom mist north"
).split()

# share of each shape in the mixed corpus (sums to 100), taken from the
# package's own traffic wheel (corpus.py ``_FAMILY_WHEEL``: article 35,
# forum 20, weixin 15, pdf 10, math 5, tablecode 5, edge 10). Its article
# family puts about 12% of articles in a bare <main> container and lazy
# images in about 12%: here 4 points each of the 35. Of its seven edge
# cases, hidden content and the heuristic best-node page have a main text
# whose extraction is defined; they share the 10 edge points. The others
# (link farm, one-word page, bare body, media-only gallery, giant article)
# plant no main text to check, and giants have a workload of their own.
MIX = (
    ("article", 27), ("main", 4), ("lazyimg", 4), ("forum", 20),
    ("weixin", 15), ("pdf", 10), ("math", 5), ("tablecode", 5),
    ("hidden", 5), ("heuristic", 5),
)
_WHEEL = [name for name, share in MIX for _ in range(share)]


@dataclass
class Doc:
    doc_id: str
    url: str
    shape: str
    spans: list = field(default_factory=list)
    main: list = field(default_factory=list)
    boiler: list = field(default_factory=list)
    media: list = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        """Span payload bytes, as the pipeline's giant offload sums them."""
        return sum(len(s["text"]) + len(s["media_ref"]) for s in self.spans)

    def html(self) -> str:
        """The page as one HTML string (HTML shapes only): text spans in
        order, each media span as its element."""
        parts = []
        for s in self.spans:
            if s["kind"] == "text":
                parts.append(s["text"])
            elif s["kind"] == "image":
                parts.append(f'<img src="{s["media_ref"]}" alt="{s["text"]}">')
            else:
                parts.append(f'<{s["kind"]} src="{s["media_ref"]}">'
                             f'</{s["kind"]}>')
        return "".join(parts)


class _Builder:
    """Accumulates one document's spans and planted truth."""

    def __init__(self, rng: random.Random, doc: Doc):
        self.rng = rng
        self.doc = doc
        self.buf: list[str] = []

    def words(self, lo: int, hi: int) -> str:
        return " ".join(self.rng.choice(VOCAB)
                        for _ in range(self.rng.randint(lo, hi)))

    def token(self, kind: str) -> str:
        planted = self.doc.main if kind == "main" else self.doc.boiler
        tok = f"{'M' if kind == 'main' else 'B'}{self.doc.doc_id[1:]}" \
              f"X{len(planted):04d}"
        planted.append(tok)
        return tok

    def sentence(self, kind: str, lo: int = 20, hi: int = 40) -> str:
        w = self.words(lo, hi).split()
        w.insert(self.rng.randrange(len(w) + 1), self.token(kind))
        s = " ".join(w)
        return s[0].upper() + s[1:] + "."

    def para(self, kind: str = "main") -> str:
        return f"<p>{self.sentence(kind)}</p>"

    def text(self, s: str) -> None:
        self.buf.append(s)

    def media(self, kinds=("image", "image", "video", "iframe")) -> None:
        kind = self.rng.choice(kinds)
        ref = f"https://media.example/{self.doc.doc_id}/{len(self.doc.media)}"
        self.doc.media.append(ref)
        self.flush()
        self.doc.spans.append({"kind": kind, "text": "figure" if
                               kind == "image" else "", "media_ref": ref})

    def flush(self) -> None:
        if self.buf:
            self.doc.spans.append(
                {"kind": "text", "text": "".join(self.buf), "media_ref": ""})
            self.buf = []

    def done(self) -> Doc:
        self.flush()
        for i, s in enumerate(self.doc.spans):
            s["offset"] = i
        return self.doc


def _boiler_head(b: _Builder) -> str:
    links = " ".join(f'<a href="/s{i}">{b.token("boiler")}</a>'
                     for i in range(3))
    return (f'<nav class="nav">{links}</nav>'
            f'<div class="header"><span>{b.token("boiler")} '
            f'{b.words(2, 4)}</span></div>')


def _boiler_tail(b: _Builder) -> str:
    return (f'<div class="sidebar"><div class="widget">'
            f'{b.para("boiler")}</div></div>'
            f'<div class="footer"><span class="copyright">'
            f'{b.token("boiler")} {b.words(2, 4)}</span></div>')


def _head(b: _Builder, title: str) -> str:
    return (f"<html><head><title>{title}</title>"
            f'<meta name="author" content="{b.words(1, 2)}"></head><body>')


def _article(b: _Builder, shape: str) -> None:
    title = b.words(3, 6).title()
    opens = {"main": ('<main class="page-zone">', "</main>"),
             "heuristic": ('<div class="story-wrap"><div class="story-inner">',
                           "</div></div>")}
    open_tag, close_tag = opens.get(
        shape, ('<article class="post-content">', "</article>"))
    b.text(_head(b, title) + _boiler_head(b) + open_tag + f"<h1>{title}</h1>")
    n = b.rng.randint(5 if shape == "heuristic" else 4, 10)
    for i in range(n):
        if shape == "math" and i % 2:
            b.text(_formula_para(b))
        elif shape == "tablecode" and i == 1:
            b.text(_table_code(b))
        else:
            b.text(b.para())
        if shape == "hidden" and i == 0:
            b.text(f'<div style="display: none">{b.para("boiler")}</div>')
        if shape == "lazyimg" and i == 1:
            ref = f"https://media.example/{b.doc.doc_id}/{len(b.doc.media)}"
            b.doc.media.append(ref)
            b.text(f'<img data-src="{ref}" alt="figure">')
        elif shape != "heuristic" and b.rng.random() < 0.25:
            b.media()
    b.text(close_tag + _boiler_tail(b) + "</body></html>")


def _formula_para(b: _Builder) -> str:
    """A paragraph holding a display or inline formula between two
    sentences that carry main tokens (the math-lifting path)."""
    x, y, z = (b.rng.choice(VOCAB) for _ in range(3))
    formula = b.rng.choice((
        f"\\begin{{equation}}{x} = {y}^2\\end{{equation}}",
        f"\\begin{{align}}{x} &= {y}\\end{{align}}",
        f"$${x}^2 + {y}$$",
        f"${z}_i$",
    ))
    return (f"<p>{b.sentence('main', 10, 20)} {formula} "
            f"{b.sentence('main', 10, 20)}</p>")


def _table_code(b: _Builder) -> str:
    """A data table and a code block, each followed by a paragraph with a
    main token (the kept-table and fenced-code paths)."""
    rows = "".join(f"<tr><td>{b.rng.choice(VOCAB)}</td><td>{j}</td></tr>"
                   for j in range(b.rng.randint(2, 5)))
    name = b.rng.choice(VOCAB)
    return (f"<table>{rows}</table>{b.para()}"
            f'<pre class="language-python">def {name}(x):\n'
            f"    return x</pre>{b.para()}")


def _forum(b: _Builder, posts: int | None = None) -> None:
    """A thread whose main post sits at a seeded position; the forum
    strategy emits it first, then the other posts in page order."""
    title = b.words(3, 6).title()
    n = posts if posts is not None else b.rng.randint(4, 8)
    first = b.rng.randrange(n) if posts is None else 0
    b.text(_head(b, title + " - Forum") + _boiler_head(b)
           + '<div class="thread-content">')
    main_tokens: list[list[str]] = []
    media: list[list[str]] = []
    for i in range(n):
        cls = "post first-post" if i == first else "reply post"
        mark, media_mark = len(b.doc.main), len(b.doc.media)
        b.text(f'<div class="{cls}" id="post-{i + 1}">{b.para()}')
        if posts is None and b.rng.random() < 0.2:
            b.media(kinds=("image",))  # forum strips iframes
        if b.rng.random() < 0.5:
            b.text(b.para())
        if b.rng.random() < 0.3:
            b.text(f'<div class="user-signature">{b.token("boiler")} '
                   f"{b.words(2, 5)}</div>")
        b.text("</div>")
        main_tokens.append(b.doc.main[mark:])
        media.append(b.doc.media[media_mark:])
    b.text("</div>" + _boiler_tail(b) + "</body></html>")
    # main post first, the rest in page order
    order = [first] + [i for i in range(n) if i != first]
    b.doc.main = [t for i in order for t in main_tokens[i]]
    b.doc.media = [r for i in order for r in media[i]]


def _weixin(b: _Builder) -> None:
    title = b.words(3, 6).title()
    b.text(f"<html><head><title>{title}</title></head><body>"
           '<div class="rich_media_area_primary">'
           f'<h2 id="activity-name">{title}</h2>'
           '<div id="meta_content"><span class="rich_media_meta_nickname">'
           f'{b.token("boiler")}</span></div>'
           '<div id="js_content">')
    for _ in range(b.rng.randint(3, 9)):
        b.text(b.para())
        if b.rng.random() < 0.3:
            b.media()
    b.text(f'</div><div class="reward_area">{b.token("boiler")}</div>'
           f'<div class="qr_code_pc_outer">{b.token("boiler")}</div>'
           "</div></body></html>")


def _pdf(b: _Builder) -> None:
    """Layout blocks in shuffled stream order. Running header and footer
    repeat on every page (dropped); body blocks are read in (page, column,
    y) order, with distinct y per column so the order has no ties."""
    pages = b.rng.randint(2, 4)
    two_col = b.rng.random() < 0.4
    header = f"{b.token('boiler')} {b.words(2, 4)}"
    footer = f"{b.token('boiler')} {b.words(1, 3)}"
    blocks = []  # (page, col, y, x, kind, text, media_ref, main token)
    for pg in range(1, pages + 1):
        blocks.append((pg, 0, 30, 40, "text", header, "", ""))
        blocks.append((pg, 0, 760, 40, "text", footer, "", ""))
        for col in ((0, 1) if two_col else (0,)):
            y = 100
            for _ in range(b.rng.randint(2, 5)):
                x = 320 if col else 40
                if b.rng.random() < 0.15:
                    ref = f"pdf://{b.doc.doc_id}/{pg}/{y}/{col}"
                    blocks.append((pg, col, y, x, "image", "figure", ref, ""))
                else:
                    text = b.sentence("main")
                    blocks.append((pg, col, y, x, "text", text, "",
                                   b.doc.main[-1]))
                y += b.rng.randint(40, 90)
    # truth in reading order; the stream order is shuffled
    blocks.sort()
    b.doc.main = [blk[7] for blk in blocks if blk[7]]
    b.doc.media = [blk[6] for blk in blocks if blk[6]]
    b.rng.shuffle(blocks)
    for pg, col, y, x, kind, text, ref, _ in blocks:
        b.doc.spans.append({"kind": kind,
                            "text": f"⟦p={pg};y={y};x={x};c={col}⟧{text}",
                            "media_ref": ref})


def make_doc(seed: int, index: int, shape: str | None = None) -> Doc:
    rng = random.Random(f"{seed}:{index}")
    shape = shape or rng.choice(_WHEEL)
    doc_id = f"d{seed % 100000:05d}{index:07d}"
    if shape == "forum":
        url = f"https://bbs.example/thread/{doc_id}"
    elif shape == "weixin":
        url = f"https://mp.weixin.qq.com/s/{doc_id}"
    elif shape == "pdf":
        url = f"https://papers.example/{doc_id}.pdf"
    else:
        url = f"https://blog.example/{shape}/{doc_id}"
    b = _Builder(rng, Doc(doc_id, url, shape))
    if shape == "forum":
        _forum(b)
    elif shape == "weixin":
        _weixin(b)
    elif shape == "pdf":
        _pdf(b)
    else:
        _article(b, shape)
    return b.done()


def make_giant(seed: int, index: int, target_bytes: int) -> Doc:
    """A multi-MB forum thread (one crawl shard of a heavy forum): posts
    are added until the span payload reaches ``target_bytes``."""
    rng = random.Random(f"{seed}:giant:{index}")
    doc_id = f"d{seed % 100000:05d}{index:07d}"
    posts = max(2, target_bytes // 420)
    b = _Builder(rng, Doc(doc_id, f"https://bbs.example/thread/{doc_id}",
                          "giant"))
    _forum(b, posts=posts)
    return b.done()


def make_corpus(seed: int, n: int, start: int = 0) -> list[Doc]:
    return [make_doc(seed, start + i) for i in range(n)]


def make_pages(seed: int, n: int, start: int = 0) -> list[Doc]:
    """Full HTML pages for the single-document API (no PDF layout)."""
    out, i = [], start
    while len(out) < n:
        d = make_doc(seed, i)
        i += 1
        if d.shape != "pdf":
            out.append(d)
    return out


def to_table(docs: list[Doc]):
    """Docs as a table in the ``input_hint`` schema (plus ``url``)."""
    import pyarrow as pa

    from magic_content_extractor_ray.schema import DOCS_SCHEMA

    return pa.Table.from_pylist(
        [{"doc_id": d.doc_id, "spans": d.spans, "url": d.url,
          "family": d.shape} for d in docs], schema=DOCS_SCHEMA)
