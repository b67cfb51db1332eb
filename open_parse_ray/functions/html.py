"""HTML → elements: boilerplate strip + deterministic synthetic layout.

This is the web-scale payload path (BASELINE.json input_hint: Common-Crawl
style pages). Real HTML has no coordinates, so this module gives each page a
deterministic synthetic layout (US-letter, bottom-left y-up coordinates —
the reference's coordinate system, src/openparse/consts.py:5) and feeds the
resulting char streams through the *same* span/line/element machinery the
PDF path defines (functions/spans.py ← reference text/pdfminer/core.py).
Everything here is a pure function of the HTML bytes: same input → same
elements, at any batch size or parallelism.

Boilerplate stripping maps the reference's positional heuristics
(RemoveMetadataElements / RemoveRepeatedElements,
reference: src/openparse/processing/basic_transforms.py:204-258) onto DOM
structure: <script>/<style>/<nav>/<aside>/... subtrees are dropped outright;
<header>/<footer> content is *placed* in the top/bottom 10% page bands so the
reference's positional band filter removes it exactly like PDF headers and
footers.
"""

from __future__ import annotations

import hashlib
import math
import re
from html.parser import HTMLParser
from typing import List, Optional, Tuple

from open_parse_ray import consts
from open_parse_ray.functions.spans import (
    group_char_items_into_spans,
    single_style_span,
)
from open_parse_ray.functions.tables import output_to_markdown
from open_parse_ray.model import (
    Bbox,
    ImageElement,
    LineElement,
    TableElement,
    TextElement,
)

# Subtrees that are never content.
_DROP_TAGS = {
    "script",
    "style",
    "noscript",
    "template",
    "iframe",
    "svg",
    "canvas",
    "button",
    "form",
    "input",
    "select",
    "option",
    "textarea",
    "nav",
    "aside",
    "head",
}

# class/id patterns marking boilerplate containers (deterministic rule list).
_BOILERPLATE_RE = re.compile(
    r"(cookie|consent|banner|advert|\bads?\b|promo|sidebar|menu|breadcrumb"
    r"|social|share|comment|popup|modal|subscribe|newsletter|related|widget)",
    re.IGNORECASE,
)

_HEADER_RE = re.compile(r"(page-header|site-header|masthead)", re.IGNORECASE)
_FOOTER_RE = re.compile(r"(page-footer|site-footer|colophon)", re.IGNORECASE)
_FULLPAGE_RE = re.compile(r"(watermark|fullpage|full-page)", re.IGNORECASE)

_BLOCK_TAGS = {
    "p",
    "div",
    "section",
    "article",
    "main",
    "body",
    "h1",
    "h2",
    "h3",
    "h4",
    "h5",
    "h6",
    "li",
    "ul",
    "ol",
    "blockquote",
    "pre",
    "figcaption",
    "dt",
    "dd",
    "header",
    "footer",
}

_HEADING_SIZES = {"h1": 24.0, "h2": 20.0, "h3": 18.0, "h4": 16.0, "h5": 14.0, "h6": 13.0}
_DEFAULT_SIZE = 12.0

# word-wrap scanners: the "\n" splitter keeps its separator ('' pieces
# between separators are empty and skipped); words are maximal non-" "
# stretches of a piece
_NL_SPLIT = re.compile(r"(\n)").split
_NON_SPACE = re.compile(r"[^ ]").search
# whitespace other than " " and "\n" — the only kind that can remain
# EMBEDDED in a word
_ODD_WS_SEARCH = re.compile(r"[^\S \n]").search

_FONT_STYLE_RE = re.compile(r"font-size\s*:\s*(\d+(?:\.\d+)?)px", re.IGNORECASE)
_BOLD_STYLE_RE = re.compile(r"font-weight\s*:\s*(bold|[7-9]00)", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


def _num_attr(v, default: float) -> float:
    try:
        return float(str(v).rstrip("px"))
    except (TypeError, ValueError):
        return default


class _Block:
    __slots__ = (
        "kind", "runs", "placement", "gap", "headers", "rows",
        "img_src", "img_w", "img_h", "img_alt",
    )

    def __init__(self, kind="text", placement="flow", gap=18.0):
        self.kind = kind  # text | table | pagebreak | image
        self.runs: List[Tuple[str, bool, bool, float]] = []
        self.placement = placement  # flow | top | bottom | full
        self.gap = gap
        self.headers: List[str] = []
        self.rows: List[List[str]] = []
        self.img_src = ""
        self.img_w = 0.0
        self.img_h = 0.0
        self.img_alt = ""


class _Extractor(HTMLParser):
    """Single-pass DOM walk producing styled text blocks + table grids."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: List[_Block] = []
        self._cur: Optional[_Block] = None
        self._drop_depth = 0
        # style stack entries: (bold, italic, size)
        self._style: List[Tuple[bool, bool, float]] = [(False, False, _DEFAULT_SIZE)]
        self._placement_stack: List[str] = ["flow"]
        self._list_stack: List[Tuple[bool, int]] = []  # (ordered, counter)
        # table state
        self._table: Optional[_Block] = None
        self._row: Optional[List[str]] = None
        self._cell: Optional[List[str]] = None
        self._cell_is_header = False
        self._row_has_header = False

    # -- helpers ---------------------------------------------------------
    def _attrs_text(self, attrs) -> str:
        vals = [v for k, v in attrs if k in ("class", "id") and v]
        return " ".join(vals)

    def _open_block(self, placement=None, gap=18.0, bullet: Optional[str] = None):
        self._flush_block()
        blk = _Block(placement=placement or self._placement_stack[-1], gap=gap)
        if bullet:
            b, i, s = self._style[-1]
            blk.runs.append((bullet, b, i, s))
        self._cur = blk

    def _flush_block(self):
        if self._cur is not None and (
            self._cur.kind != "text" or any(r[0].strip() for r in self._cur.runs)
        ):
            # trim leading/trailing whitespace across runs
            runs = self._cur.runs
            while runs and not runs[0][0].strip():
                runs.pop(0)
            while runs and not runs[-1][0].strip():
                runs.pop()
            if runs:
                t, b, i, s = runs[0]
                runs[0] = (t.lstrip(), b, i, s)
                t, b, i, s = runs[-1]
                runs[-1] = (t.rstrip(), b, i, s)
            self.blocks.append(self._cur)
        self._cur = None

    # -- HTMLParser hooks ------------------------------------------------
    def handle_starttag(self, tag, attrs):
        if self._drop_depth:
            self._drop_depth += 1
            return
        attr_text = self._attrs_text(attrs) if attrs else ""
        if tag in _DROP_TAGS or (attr_text and _BOILERPLATE_RE.search(attr_text)):
            self._drop_depth = 1
            return

        # void elements: no endtag will fire, so never push onto the style
        # stack (a push here would desync every later endtag pop)
        if tag == "hr":
            self._flush_block()
            self.blocks.append(_Block(kind="pagebreak"))
            return
        if tag == "br":
            if self._cell is not None:
                self._cell.append("\n")
            elif self._cur is not None:
                self._cur.runs.append(("\n", *self._style[-1]))
            return
        if tag == "img":
            if self._table is None:
                self._flush_block()
                d = dict(attrs)
                blk = _Block(kind="image", placement=self._placement_stack[-1])
                blk.img_src = d.get("src", "") or ""
                blk.img_w = _num_attr(d.get("width"), 200.0)
                blk.img_h = _num_attr(d.get("height"), 150.0)
                blk.img_alt = (d.get("alt", "") or "").strip()
                self.blocks.append(blk)
            return

        style_attr = (dict(attrs).get("style", "") or "") if attrs else ""
        bold, italic, size = self._style[-1]
        if tag in ("b", "strong"):
            bold = True
        if tag in ("i", "em"):
            italic = True
        if tag in _HEADING_SIZES:
            size = _HEADING_SIZES[tag]
            bold = True
        if style_attr:
            m = _FONT_STYLE_RE.search(style_attr)
            if m:
                size = float(m.group(1))
            if _BOLD_STYLE_RE.search(style_attr):
                bold = True
        self._style.append((bold, italic, size))

        if tag == "table":
            self._flush_block()
            self._table = _Block(kind="table", placement=self._placement_stack[-1])
            return
        if self._table is not None:
            if tag == "tr":
                self._row = []
                self._row_has_header = False
            elif tag in ("td", "th"):
                self._cell = []
                self._cell_is_header = tag == "th"
            return

        placement = None
        if attr_text:
            if tag == "header" or _HEADER_RE.search(attr_text):
                placement = "top"
            elif tag == "footer" or _FOOTER_RE.search(attr_text):
                placement = "bottom"
            elif _FULLPAGE_RE.search(attr_text):
                placement = "full"
        elif tag == "header":
            placement = "top"
        elif tag == "footer":
            placement = "bottom"

        if tag in ("ul", "ol"):
            self._flush_block()
            self._list_stack.append((tag == "ol", 0))
            if placement:
                self._placement_stack.append(placement)
            return

        if tag in _BLOCK_TAGS:
            bullet = None
            gap = 18.0
            if tag == "li":
                gap = 4.0  # list items sit close → spatial combine can merge them
                if self._list_stack:
                    ordered, n = self._list_stack[-1]
                    n += 1
                    self._list_stack[-1] = (ordered, n)
                    bullet = f"{n}. " if ordered else "- "
                else:
                    bullet = "- "
            if placement:
                self._placement_stack.append(placement)
            if tag in _HEADING_SIZES:
                gap = 14.0
            self._open_block(placement=placement, gap=gap, bullet=bullet)

    def handle_endtag(self, tag):
        if self._drop_depth:
            self._drop_depth -= 1
            return
        if len(self._style) > 1:
            self._style.pop()

        if tag == "table" and self._table is not None:
            self.blocks.append(self._table)
            self._table = None
            return
        if self._table is not None:
            if tag in ("td", "th") and self._cell is not None:
                text = _WS_RE.sub(" ", "".join(self._cell)).strip()
                if self._cell_is_header:
                    self._table.headers.append(text)
                    self._row_has_header = True
                elif self._row is not None:
                    self._row.append(text)
                else:
                    self._table.headers.append(text)
                self._cell = None
            elif tag == "tr" and self._row is not None:
                if self._row:
                    self._table.rows.append(self._row)
                self._row = None
            return

        if tag in ("ul", "ol") and self._list_stack:
            self._list_stack.pop()
            self._flush_block()
        if tag in ("header", "footer") and len(self._placement_stack) > 1:
            self._placement_stack.pop()
        if tag in _BLOCK_TAGS:
            self._flush_block()
            if len(self._placement_stack) > 1 and self._placement_stack[-1] in (
                "top",
                "bottom",
                "full",
            ):
                # positioned div closed
                self._placement_stack.pop()

    def handle_data(self, data):
        if self._drop_depth:
            return
        if self._cell is not None:
            self._cell.append(data)
            return
        if self._table is not None:
            return
        text = _WS_RE.sub(" ", data)
        if not text:
            return
        if self._cur is None:
            if not text.strip():
                return
            self._open_block()
        self._cur.runs.append((text, *self._style[-1]))

    def close(self):
        super().close()
        self._flush_block()


def _fontname(bold: bool, italic: bool) -> str:
    if bold and italic:
        return "Synth-BoldItalic"
    if bold:
        return "Synth-Bold"
    if italic:
        return "Synth-Italic"
    return "Synth"


def _char_width(size: float) -> float:
    return 0.5 * size


# Sizes above this are wrapped word by word (see _exact_cw64).
_EXACT_SIZE_MAX = 32768.0


def _exact_cw64(size: float) -> int:
    """64 × ``_char_width(size)`` when that is an integer in
    [1, 2**20], else 0. Such a width is a multiple of 1/64, so every
    width and every sum of widths on a line (below 2**32 chars) is a
    multiple of 1/64 under 2**53/64: exact in float64, whatever order
    the additions run in."""
    if 0.0 < size <= _EXACT_SIZE_MAX:
        cw64 = size * 32.0
        if cw64 == int(cw64):
            return int(cw64)
    return 0


class _Layout:
    """Deterministic top-down flow layout over US-letter pages."""

    def __init__(self, table_output_format: str = "markdown"):
        self.page = 0
        self.cursor = consts.PAGE_TOP_Y
        self.top_cursor = consts.PAGE_HEIGHT - 24.0
        self.bottom_cursor = 40.0
        self.elements: List = []
        self.max_width = consts.PAGE_WIDTH - 2 * consts.PAGE_MARGIN_X
        # table_args.table_output_format (reference doc_parser.py:31-34);
        # "markdown" is the byte-identity default
        self.table_output_format = table_output_format

    def new_page(self):
        self.page += 1
        self.cursor = consts.PAGE_TOP_Y
        self.top_cursor = consts.PAGE_HEIGHT - 24.0
        self.bottom_cursor = 40.0

    def _wrap(self, runs) -> List[tuple]:
        """Greedy word-wrap of styled runs into lines.

        Each line is ``(segs, width, max_size, uni)``: ``segs`` are the
        ``(text, font, size)`` slices of the runs it holds, ``uni`` the
        uniform-style ``(font, size)`` marker for the span fast path, or
        None when the line mixes styles or carries whitespace other than
        " " inside a word. The rule is the word-by-word one: a word (a
        maximal non-" " stretch of a "\\n"-free piece) that would push
        the line past ``max_width`` starts a new line, after the line's
        trailing spaces are dropped; the first word of a line never
        wraps; a line never starts with a space; "\\n" ends a line and
        keeps its trailing spaces.

        Widths are exact when ``_exact_cw64(size)`` is nonzero (64 × the
        char width is an integer, which holds for the default and every
        heading size): every sum of them is then exact in float64, so it
        does not depend on the order of the additions. While every width
        on the line is exact, one step takes a whole line: the capacity
        ``(max_w64 − w64) // cw64`` in chars, then ``str.rfind(" ")`` for
        the last word end within it. Once a line holds an inexact width
        (say 13.7px) the same state machine advances word by word and
        adds the widths one item (word or " ") at a time, in the order
        the per-word wrap did: that order decides the last bit of the
        2dp bboxes. Pinned against the per-word wrap by
        tests/test_robustness.py::test_wrap_equals_per_word_wrap."""
        lines: List[tuple] = []
        segs: List[Tuple[str, str, float]] = []
        exact = True
        # exact line: width, and width up to the last word, in 1/64 units
        w64 = end64 = 0
        # inexact line: the same two, as per-item float sums
        cur_w = end_w = 0.0

        def flush(trim: bool):
            nonlocal segs, exact, w64, end64, cur_w, end_w
            if segs:
                if trim:
                    # drop the trailing spaces before wrapping
                    while not segs[-1][0].strip(" "):
                        segs.pop()
                    t, f, s = segs[-1]
                    segs[-1] = (t.rstrip(" "), f, s)
                    width = end64 / 64 if exact else end_w
                else:
                    width = w64 / 64 if exact else cur_w
                f0, s0 = segs[0][1], segs[0][2]
                msize = s0
                uni = True
                for t, f, s in segs:
                    if s > msize:
                        msize = s
                    if uni and (f != f0 or s != s0 or _ODD_WS_SEARCH(t)):
                        uni = False
                lines.append((segs, width, msize, (f0, s0) if uni else None))
                segs = []
            exact = True
            w64 = end64 = 0
            cur_w = end_w = 0.0

        max_width = self.max_width
        max_w64 = math.floor(max_width * 64)
        for text, bold, italic, size in runs:
            font = _fontname(bold, italic)
            cw = _char_width(size)
            cw64 = _exact_cw64(size)
            for piece in _NL_SPLIT(text) if "\n" in text else (text,):
                if piece == "\n":
                    flush(False)
                    continue
                n = len(piece)
                # piece[start:p] is on the current line, not yet in segs
                p = start = 0
                while p < n:
                    if p == start and not segs:
                        # empty line: skip leading spaces; the first word
                        # goes on whatever its width
                        m = _NON_SPACE(piece, p)
                        if m is None:
                            break
                        start = p = m.start()
                        e = piece.find(" ", p)
                        if e < 0:
                            e = n
                        if cw64:
                            w64 = end64 = (e - p) * cw64
                        else:
                            exact = False
                            cur_w = end_w = 0.0 + (e - p) * cw
                        p = e
                    elif exact and cw64:
                        # whole-line step: chars that still fit
                        last = p + (max_w64 - w64) // cw64
                        if last < n:
                            # (last < p: not even the next char fits, and
                            # a negative end would count from the back)
                            j = piece.rfind(" ", p, last + 1) if last >= p else -1
                            e = p + len(piece[p:j].rstrip(" ")) if j > p else p
                            m = _NON_SPACE(piece, j + 1 if j >= 0 else p)
                            if m is not None:
                                # the word at m does not fit: the line
                                # ends after the last word that does
                                if e > p:
                                    end64 = w64 + (e - p) * cw64
                                if e > start:
                                    segs.append((piece[start:e], font, size))
                                flush(True)
                                start = p = m.start()
                                continue
                        # the rest of the piece fits, or is only spaces
                        e = len(piece.rstrip(" "))
                        if e > p:
                            end64 = w64 + (e - p) * cw64
                        w64 += (n - p) * cw64
                        p = n
                    else:
                        if exact:
                            # inexact from here: continue the float sum
                            # from the exact value
                            exact = False
                            cur_w = w64 / 64
                            end_w = end64 / 64
                        if piece[p] == " ":
                            cur_w += cw
                            p += 1
                            continue
                        e = piece.find(" ", p)
                        if e < 0:
                            e = n
                        w = (e - p) * cw
                        if cur_w + w > max_width:
                            if p > start:
                                segs.append((piece[start:p], font, size))
                            flush(True)
                            start = p
                            continue
                        cur_w += w
                        end_w = cur_w
                        p = e
                if p > start:
                    segs.append((piece[start:p], font, size))
        flush(False)
        return lines

    def _emit_text_element(self, line_elems: List[LineElement], texts: List[str]):
        if not line_elems:
            return
        x0s, y0s, x1s, y1s = zip(*[le.bbox for le in line_elems])
        x0, y0, x1, y1 = min(x0s), min(y0s), max(x1s), max(y1s)
        self.elements.append(
            TextElement(
                text="\n".join(texts),
                lines=tuple(line_elems),
                bbox=Bbox(
                    page=self.page,
                    page_height=consts.PAGE_HEIGHT,
                    page_width=consts.PAGE_WIDTH,
                    x0=x0,
                    y0=y0,
                    x1=x1,
                    y1=y1,
                ),
            )
        )

    def _make_line(self, segs, y1: float, width: float, max_size: float, uni) -> LineElement:
        bbox = (
            consts.PAGE_MARGIN_X,
            y1 - max_size,
            consts.PAGE_MARGIN_X + width,
            y1,
        )
        if uni is not None:
            # single-style line: the grouping state machine degenerates to
            # one span over the joined slices (see single_style_span)
            text = "".join([t for t, _, _ in segs])
            spans = (single_style_span(text, uni[0], uni[1]),)
        else:
            spans = tuple(group_char_items_into_spans(segs))
        return LineElement(bbox=bbox, spans=spans)

    def place_text_block(self, block: _Block):
        lines = self._wrap(block.runs)
        if not lines:
            return
        if block.placement == "top":
            les = []
            for segs, width, msize, uni in lines:
                le = self._make_line(segs, self.top_cursor, width, msize, uni)
                self.top_cursor -= msize * 1.2
                les.append(le)
            self._emit_text_element(les, [le.text for le in les])
            return
        if block.placement == "bottom":
            les = []
            for segs, width, msize, uni in lines:
                le = self._make_line(segs, self.bottom_cursor, width, msize, uni)
                self.bottom_cursor -= msize * 1.2
                les.append(le)
            self._emit_text_element(les, [le.text for le in les])
            return
        if block.placement == "full":
            # one element spanning most of the page (watermark / full-page stub)
            spans = group_char_items_into_spans(
                [seg for segs, _, _, _ in lines for seg in segs]
            )
            bbox = (36.0, 60.0, consts.PAGE_WIDTH - 36.0, consts.PAGE_HEIGHT - 36.0)
            le = LineElement(bbox=bbox, spans=tuple(spans))
            self.elements.append(
                TextElement(
                    text=le.text,
                    lines=(le,),
                    bbox=Bbox(
                        page=self.page,
                        page_height=consts.PAGE_HEIGHT,
                        page_width=consts.PAGE_WIDTH,
                        x0=bbox[0],
                        y0=bbox[1],
                        x1=bbox[2],
                        y1=bbox[3],
                    ),
                )
            )
            return

        # normal flow
        les: List[LineElement] = []
        for segs, width, line_h, uni in lines:
            if self.cursor - line_h < consts.PAGE_BOTTOM_Y:
                # page break: close the element on this page, continue on next
                self._emit_text_element(les, [le.text for le in les])
                les = []
                self.new_page()
            le = self._make_line(segs, self.cursor, width, line_h, uni)
            self.cursor -= round(line_h * 1.2, 2)
            les.append(le)
        self._emit_text_element(les, [le.text for le in les])
        self.cursor -= block.gap

    def place_table_block(self, block: _Block):
        n_rows = len(block.rows) + 1
        height = n_rows * 16.0 + 8.0
        if self.cursor - height < consts.PAGE_BOTTOM_Y:
            self.new_page()
        if self.table_output_format == "html":
            from open_parse_ray.functions.tables import output_to_html

            text = output_to_html(block.headers, block.rows)
        else:
            text = output_to_markdown(block.headers, block.rows)
        y1 = self.cursor
        y0 = max(consts.PAGE_BOTTOM_Y, y1 - height)
        self.elements.append(
            TableElement(
                text=text,
                bbox=Bbox(
                    page=self.page,
                    page_height=consts.PAGE_HEIGHT,
                    page_width=consts.PAGE_WIDTH,
                    x0=consts.PAGE_MARGIN_X,
                    y0=y0,
                    x1=consts.PAGE_WIDTH - consts.PAGE_MARGIN_X,
                    y1=y1,
                ),
            )
        )
        self.cursor = y0 - 18.0

    def place_image_block(self, block: _Block):
        """Emit an ImageElement for an <img> tag.

        The payload is a deterministic src-derived stub (no image decoding
        libraries in this environment; the real decode/resize stages are
        the actor-pool kernels in stages/multimodal.py). Mimetype comes
        from the src extension — the analog of the reference's PDF
        filter-chain sniffing (reference: text/pdfminer/core.py:70-96)."""
        w = min(block.img_w, self.max_width)
        h = block.img_h
        if self.cursor - h < consts.PAGE_BOTTOM_Y:
            self.new_page()
        y1 = self.cursor
        y0 = max(consts.PAGE_BOTTOM_Y, y1 - h)
        src = block.img_src
        ext = src.rsplit(".", 1)[-1].lower() if "." in src else ""
        mimetype = {
            "jpg": "image/jpeg",
            "jpeg": "image/jpeg",
            "png": "image/png",
            "gif": "image/gif",
            "bmp": "image/bmp",
            "webp": "image/webp",
        }.get(ext, "image/png")
        payload = hashlib.sha1(src.encode("utf-8")).digest()
        self.elements.append(
            ImageElement(
                text=block.img_alt,
                bbox=Bbox(
                    page=self.page,
                    page_height=consts.PAGE_HEIGHT,
                    page_width=consts.PAGE_WIDTH,
                    x0=consts.PAGE_MARGIN_X,
                    y0=y0,
                    x1=consts.PAGE_MARGIN_X + w,
                    y1=y1,
                ),
                image=payload,
                image_mimetype=mimetype,
            )
        )
        self.cursor = y0 - block.gap


# ---------------------------------------------------------------------------
# Fast tokenizer path
#
# html.parser's pure-Python goahead loop costs ~20% of the extraction
# kernel. This compiled-regex tokenizer emits the IDENTICAL event stream
# (handle_starttag / handle_endtag / handle_data with html.parser's
# lowercasing, charref conversion, raw-text <script>/<style> handling and
# startendtag expansion) for well-formed markup, and raises _FastParseBail
# on anything it is not certain about — a stray '<' in text, an
# unterminated raw-text element — so those documents fall back to the
# stdlib parser. Equivalence is gated by an event-stream A/B test over the
# whole corpus (tests/test_model.py::test_fast_tokenizer_event_parity).
# ---------------------------------------------------------------------------

_FAST_TOKEN_RE = re.compile(
    r"<!--.*?-->"
    r"|<!\[CDATA\[.*?\]\]>"
    r"|<![a-zA-Z][^>]*>"
    r"|<\?[^>]*>"
    r"|</(?P<end>[a-zA-Z][a-zA-Z0-9-]*)\s*>"
    r"|<(?P<start>[a-zA-Z][a-zA-Z0-9-]*)"
    r"(?P<attrs>(?:\s+[a-zA-Z_:][-a-zA-Z0-9_:.]*(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"
    r"\s*(?P<selfclose>/?)>",
    re.S,
)
_FAST_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)"
    r"(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
# Only script/style are CDATA (raw-text) elements for html.parser with
# convert_charrefs=True (HTMLParser.CDATA_CONTENT_ELEMENTS); title and
# textarea content is parsed NORMALLY by the stdlib (entities converted,
# nested tags emitted as events), so the fast tokenizer must not treat
# them as raw text or its event stream would diverge for e.g.
# '<title>a &amp; b</title>' — gated by test_fast_tokenizer_event_parity.
_RAWTEXT_CLOSE = {
    t: re.compile(rf"</{t}\s*>", re.I) for t in ("script", "style")
}


class _FastParseBail(Exception):
    pass


def _fast_feed(html_text: str, handler) -> None:
    """Drive the extractor with html.parser-equivalent events, or bail."""
    import html as _htmlmod

    unescape = _htmlmod.unescape
    pos = 0
    n = len(html_text)
    while pos < n:
        m = _FAST_TOKEN_RE.search(html_text, pos)
        text_end = m.start() if m else n
        if text_end > pos:
            text = html_text[pos:text_end]
            if "<" in text:
                raise _FastParseBail("stray '<' in text")
            if text:
                handler.handle_data(unescape(text) if "&" in text else text)
        if m is None:
            break
        pos = m.end()
        end_tag = m.group("end")
        if end_tag is not None:
            handler.handle_endtag(end_tag.lower())
            continue
        start_tag = m.group("start")
        if start_tag is None:
            continue  # comment / doctype / CDATA / processing instruction
        tag = start_tag.lower()
        raw_attrs = m.group("attrs") or ""
        attrs = []
        if raw_attrs:
            for am in _FAST_ATTR_RE.finditer(raw_attrs):
                name = am.group(1).lower()
                if am.group(2) is not None:
                    val = am.group(2)
                elif am.group(3) is not None:
                    val = am.group(3)
                elif am.group(4):
                    val = am.group(4)
                else:
                    val = None
                if val is not None and "&" in val:
                    val = unescape(val)
                attrs.append((name, val))
        if m.group("selfclose"):
            # html.parser: handle_startendtag → starttag then endtag
            handler.handle_starttag(tag, attrs)
            handler.handle_endtag(tag)
            continue
        handler.handle_starttag(tag, attrs)
        close_re = _RAWTEXT_CLOSE.get(tag)
        if close_re is not None:
            cm = close_re.search(html_text, pos)
            if cm is None:
                raise _FastParseBail(f"unterminated <{tag}>")
            if cm.start() > pos:
                # CDATA content: html.parser passes it through unconverted
                handler.handle_data(html_text[pos : cm.start()])
            handler.handle_endtag(tag)
            pos = cm.end()


def _run_extractor(html_text: str) -> "_Extractor":
    try:
        extractor = _Extractor()
        _fast_feed(html_text, extractor)
        return extractor
    except _FastParseBail:
        extractor = _Extractor()
        extractor.feed(html_text)
        extractor.close()
        return extractor


def html_to_elements(html, table_output_format: str = "markdown") -> List:
    """Parse + strip + lay out one HTML document into elements.

    Pure and deterministic: the per-url byte-identity contract starts here
    (``table_output_format`` defaults to the contract's markdown; "html"
    renders TableElements with the reference's html renderer instead —
    doc_parser.py table_args semantics).
    """
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    extractor = _run_extractor(html)

    layout = _Layout(table_output_format)
    for block in extractor.blocks:
        if block.kind == "pagebreak":
            layout.new_page()
        elif block.kind == "table":
            layout.place_table_block(block)
        elif block.kind == "image":
            layout.place_image_block(block)
        else:
            layout.place_text_block(block)
    return layout.elements


def visible_text(html) -> str:
    """Raw visible text of the page (boilerplate stripped), for the
    ``text`` input column and quick heuristics."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", "replace")
    extractor = _run_extractor(html)
    parts = []
    for block in extractor.blocks:
        if block.kind == "text":
            parts.append("".join(r[0] for r in block.runs))
        elif block.kind == "table":
            parts.append(
                " ".join(block.headers)
                + " "
                + " ".join(c for row in block.rows for c in row)
            )
    return "\n".join(p.strip() for p in parts if p.strip())
