"""Core per-document data model: spans, lines, elements, nodes.

This is a from-scratch, pydantic-free re-implementation of the reference's
frozen object model (reference: src/openparse/schemas.py). Semantics —
markdown span formatting, the ``spans[:-1]`` heading quirk, 2-decimal line
bbox rounding, reading order, node text assembly with the 1pt/12pt
same-line/same-paragraph thresholds — are preserved exactly; they are the
per-url byte-identity contract. Objects here live only *inside* a
``map_batches`` kernel for one document; they never cross a Ray task
boundary (rows are Arrow structs at stage boundaries).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from open_parse_ray import consts
from open_parse_ray.tokens import num_tokens

# Reference: src/openparse/schemas.py:14-16
BULLET_RE = re.compile(
    r"^(\s*[\-•](?!\*)|\s*\*(?!\*)|\s*\d+\.\s|\s*\([a-zA-Z0-9]+\)\s|\s*[a-zA-Z]\.\s)"
)

_MD_CLEANUP = [
    # order matters (reference: src/openparse/schemas.py:166-181)
    (re.compile(r"(\*\*|__)\s+"), r"\1"),
    (re.compile(r"\s+(\*\*|__)"), r"\1"),
    (re.compile(r"(\*|_)\s+"), r"\1"),
    (re.compile(r"\s+(\*|_)"), r"\1"),
    (re.compile(r"(\*\*|__)(\*\*|__)"), r"\1 \2"),
]


# one search that is non-None whenever ANY of the five cleanup patterns
# could match: a marker char adjacent to whitespace covers patterns 1-4
# (each requires some [*_] touching \s), and the four literal doubled-marker
# juxtapositions cover pattern 5. False positives just run the (no-op) subs.
_MD_ANY_SEARCH = re.compile(
    r"[*_]\s|\s[*_]|\*\*\*\*|\*\*__|__\*\*|____"
).search


def clean_markdown_formatting(text: str) -> str:
    """Fix markdown markers that surround whitespace (schemas.py:160-187).

    Every cleanup pattern requires a ``*`` or ``_`` marker; plain lines
    (the overwhelming majority) skip all five regex passes, and marker
    lines with no whitespace-adjacent marker skip them after one search."""
    if "*" not in text and "_" not in text:
        return text
    if _MD_ANY_SEARCH(text) is None:
        return text
    for pattern, replacement in _MD_CLEANUP:
        text = pattern.sub(replacement, text)
    return text


class Bbox:
    """Axis-aligned box on a page, bottom-left coordinates (schemas.py:27-67)."""

    __slots__ = ("page", "page_height", "page_width", "x0", "y0", "x1", "y1")

    def __init__(self, page, page_height, page_width, x0, y0, x1, y1):
        self.page = page
        self.page_height = page_height
        self.page_width = page_width
        self.x0 = x0
        self.y0 = y0
        self.x1 = x1
        self.y1 = y1

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def combine(self, other: "Bbox") -> "Bbox":
        if self.page != other.page:
            raise ValueError("Bboxes must be from the same page to combine.")
        return Bbox(
            page=self.page,
            page_height=self.page_height,
            page_width=self.page_width,
            x0=min(self.x0, other.x0),
            y0=min(self.y0, other.y0),
            x1=max(self.x1, other.x1),
            y1=max(self.y1, other.y1),
        )

    def _key(self):
        return (
            self.page,
            self.page_height,
            self.page_width,
            self.x0,
            self.y0,
            self.x1,
            self.y1,
        )

    def __eq__(self, other):
        return isinstance(other, Bbox) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Bbox(page={self.page}, {self.x0},{self.y0},{self.x1},{self.y1})"


class TextSpan:
    """A run of uniformly-styled text (schemas.py:75-108)."""

    __slots__ = ("text", "is_bold", "is_italic", "size")

    def __init__(self, text: str, is_bold: bool, is_italic: bool, size: float):
        self.text = text
        self.is_bold = is_bold
        self.is_italic = is_italic
        self.size = size

    @property
    def is_heading(self) -> bool:
        return self.size >= consts.MIN_HEADING_SIZE and self.is_bold

    def formatted_text(
        self,
        previous_span: Optional["TextSpan"] = None,
        next_span: Optional["TextSpan"] = None,
    ) -> str:
        """Emit **/* markers only at style boundaries (schemas.py:86-106)."""
        formatted = self.text
        if self.is_bold and (previous_span is None or not previous_span.is_bold):
            formatted = f"**{formatted}"
        if self.is_italic and (previous_span is None or not previous_span.is_italic):
            formatted = f"*{formatted}"
        if self.is_bold and (next_span is None or not next_span.is_bold):
            formatted = f"{formatted}**"
        if self.is_italic and (next_span is None or not next_span.is_italic):
            formatted = f"{formatted}*"
        return formatted

    def _key(self):
        return (self.text, self.is_bold, self.is_italic, self.size)

    def __eq__(self, other):
        return isinstance(other, TextSpan) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"TextSpan({self.text!r}, b={self.is_bold}, i={self.is_italic}, s={self.size})"


class LineElement:
    """One laid-out line: bbox (rounded to 2dp) + spans (schemas.py:111-223)."""

    __slots__ = ("bbox", "spans", "style", "_text")

    def __init__(
        self,
        bbox: Tuple[float, float, float, float],
        spans: Tuple[TextSpan, ...],
        style: Optional[str] = None,
    ):
        self.bbox = tuple([round(v, 2) for v in bbox])  # schemas.py:116-120
        self.spans = tuple(spans)
        self.style = style
        self._text: Optional[str] = None

    @property
    def text(self) -> str:
        """Markdown join of spans + cleanup (schemas.py:122-138)."""
        if self._text is None:
            if not self.spans:
                self._text = ""
            else:
                combined = ""
                n = len(self.spans)
                for i, span in enumerate(self.spans):
                    prev = self.spans[i - 1] if i > 0 else None
                    nxt = self.spans[i + 1] if i < n - 1 else None
                    combined += span.formatted_text(prev, nxt)
                self._text = clean_markdown_formatting(combined)
        return self._text

    def _fmt_spans(self) -> Sequence[TextSpan]:
        # ignore trailing span quirk (schemas.py:141-158)
        return self.spans[:-1] if len(self.spans) > 1 else self.spans

    @property
    def is_bold(self) -> bool:
        return all(s.is_bold for s in self._fmt_spans())

    @property
    def is_italic(self) -> bool:
        return all(s.is_italic for s in self._fmt_spans())

    @property
    def is_heading(self) -> bool:
        return all(
            s.size >= consts.MIN_HEADING_SIZE and s.is_bold for s in self._fmt_spans()
        )

    def overlaps(self, other: "LineElement", error_margin: float = 0.0) -> bool:
        x_overlap = not (
            self.bbox[0] - error_margin > other.bbox[2] + error_margin
            or other.bbox[0] - error_margin > self.bbox[2] + error_margin
        )
        y_overlap = not (
            self.bbox[1] - error_margin > other.bbox[3] + error_margin
            or other.bbox[1] - error_margin > self.bbox[3] + error_margin
        )
        return x_overlap and y_overlap

    def is_at_similar_height(
        self, other: "LineElement", error_margin: float = 0.0
    ) -> bool:
        return abs(self.bbox[1] - other.bbox[1]) <= error_margin

    def combine(self, other: "LineElement") -> "LineElement":
        new_bbox = (
            min(self.bbox[0], other.bbox[0]),
            min(self.bbox[1], other.bbox[1]),
            max(self.bbox[2], other.bbox[2]),
            max(self.bbox[3], other.bbox[3]),
        )
        return LineElement(bbox=new_bbox, spans=self.spans + other.spans)

    def _key(self):
        return (self.bbox, self.spans, self.style)

    def __eq__(self, other):
        return isinstance(other, LineElement) and self._key() == other._key()

    def __repr__(self):
        return f"LineElement({self.bbox}, {self.spans!r})"


class TextElement:
    """A text block (schemas.py:226-289)."""

    __slots__ = ("text", "lines", "bbox", "_embed_text", "_tokens")
    variant = "text"

    def __init__(self, text, lines, bbox, embed_text=None):
        self.text = text
        self.lines = tuple(lines)
        self.bbox = bbox
        self._embed_text = embed_text
        self._tokens: Optional[int] = None

    @property
    def embed_text(self) -> str:
        return self._embed_text if self._embed_text else self.text

    @property
    def tokens(self) -> int:
        if self._tokens is None:
            self._tokens = num_tokens(self.text)
        return self._tokens

    @property
    def is_heading(self) -> bool:
        return all(line.is_heading for line in self.lines)

    @property
    def is_bold(self) -> bool:
        return all(line.is_bold for line in self.lines)

    @property
    def page(self) -> int:
        return self.bbox.page

    @property
    def area(self) -> float:
        return (self.bbox.x1 - self.bbox.x0) * (self.bbox.y1 - self.bbox.y0)

    def is_at_similar_height(self, other, error_margin: float = 1) -> bool:
        return abs(self.bbox.y1 - other.bbox.y1) <= error_margin

    def overlaps(
        self, other, x_error_margin: float = 0.0, y_error_margin: float = 0.0
    ) -> bool:
        if self.page != other.page:
            return False
        x_overlap = not (
            self.bbox.x0 - x_error_margin > other.bbox.x1 + x_error_margin
            or other.bbox.x0 - x_error_margin > self.bbox.x1 + x_error_margin
        )
        y_overlap = not (
            self.bbox.y0 - y_error_margin > other.bbox.y1 + y_error_margin
            or other.bbox.y0 - y_error_margin > self.bbox.y1 + y_error_margin
        )
        return x_overlap and y_overlap

    def _key(self):
        return ("text", self.text, self.lines, self.bbox._key())

    def __eq__(self, other):
        return isinstance(other, TextElement) and self._key() == other._key()

    def __repr__(self):
        return f"TextElement({self.text[:40]!r}, page={self.bbox.page})"


class TableElement:
    """A table serialized to markdown/html text (schemas.py:297-330)."""

    __slots__ = ("text", "bbox", "_embed_text", "_tokens")
    variant = "table"

    def __init__(self, text, bbox, embed_text=None):
        self.text = text
        self.bbox = bbox
        self._embed_text = embed_text
        self._tokens: Optional[int] = None

    @property
    def embed_text(self) -> str:
        return self._embed_text if self._embed_text else self.text

    @property
    def tokens(self) -> int:
        if self._tokens is None:
            self._tokens = num_tokens(self.text)
        return self._tokens

    @property
    def page(self) -> int:
        return self.bbox.page

    @property
    def area(self) -> float:
        return (self.bbox.x1 - self.bbox.x0) * (self.bbox.y1 - self.bbox.y0)

    def is_at_similar_height(self, other, error_margin: float = 1) -> bool:
        return abs(self.bbox.y1 - other.bbox.y1) <= error_margin

    def _key(self):
        return ("table", self.text, self.bbox._key())

    def __eq__(self, other):
        return isinstance(other, TableElement) and self._key() == other._key()

    def __repr__(self):
        return f"TableElement({self.text[:40]!r}, page={self.bbox.page})"


class ImageElement:
    """An opaque binary image + typed metadata (schemas.py:338-395).

    The reference stores base64 strings; we store raw ``bytes`` (33% smaller
    rows at scale) and base64-encode only at an explicit export sink.
    """

    __slots__ = ("text", "bbox", "image", "image_mimetype", "_embed_text")
    variant = "image"

    def __init__(self, text, bbox, image: bytes, image_mimetype: str, embed_text=None):
        self.text = text
        self.bbox = bbox
        self.image = image
        self.image_mimetype = image_mimetype
        self._embed_text = embed_text

    @property
    def embed_text(self) -> str:
        return self._embed_text if self._embed_text else self.text

    @property
    def tokens(self) -> int:
        return 512  # fixed placeholder (schemas.py:375)

    @property
    def page(self) -> int:
        return self.bbox.page

    @property
    def area(self) -> float:
        return (self.bbox.x1 - self.bbox.x0) * (self.bbox.y1 - self.bbox.y0)

    def is_at_similar_height(self, other, error_margin: float = 1) -> bool:
        return abs(self.bbox.y1 - other.bbox.y1) <= error_margin

    def overlaps(self, other: "ImageElement", buffer: float = 1.0) -> bool:
        if self.bbox.page != other.bbox.page:
            return False
        return not (
            self.bbox.x1 + buffer < other.bbox.x0 - buffer
            or self.bbox.x0 - buffer > other.bbox.x1 + buffer
            or self.bbox.y1 + buffer < other.bbox.y0 - buffer
            or self.bbox.y0 - buffer > other.bbox.y1 + buffer
        )

    def _key(self):
        return ("image", self.text, self.image, self.image_mimetype, self.bbox._key())

    def __eq__(self, other):
        return isinstance(other, ImageElement) and self._key() == other._key()


def _determine_relationship(elem1, elem2, line_threshold=1, paragraph_threshold=12):
    """same-line / same-paragraph / None between two elements (schemas.py:403-424)."""
    if elem1.variant == "table" or elem2.variant == "table":
        return None
    vertical_distance = abs(elem1.bbox.y0 - elem2.bbox.y0)
    if vertical_distance <= line_threshold:
        return "same-line"
    elif vertical_distance <= paragraph_threshold:
        return "same-paragraph"
    return None


class Node:
    """A chunk: an ordered tuple of elements (schemas.py:427-678).

    Computed views are cached lazily; merges (`+`) produce new Nodes, so
    caches never go stale (mirrors the reference's frozen models).
    """

    __slots__ = ("elements", "embedding", "_cache")

    def __init__(self, elements, embedding=None):
        self.elements = tuple(elements)
        self.embedding = embedding
        self._cache: Dict[str, object] = {}

    # -- cached computed views -------------------------------------------
    @property
    def variant(self) -> set:
        v = self._cache.get("variant")
        if v is None:
            v = {e.variant for e in self.elements}
            self._cache["variant"] = v
        return v

    @property
    def tokens(self) -> int:
        t = self._cache.get("tokens")
        if t is None:
            t = sum(e.tokens for e in self.elements)
            self._cache["tokens"] = t
        return t

    @property
    def images(self) -> List[ImageElement]:
        return [e for e in self.elements if e.variant == "image"]

    @property
    def bbox(self) -> List[Bbox]:
        """One combined bbox per page, page order = first-seen (schemas.py:471-497)."""
        b = self._cache.get("bbox")
        if b is None:
            by_page: Dict[int, List] = {}
            for element in self.elements:
                by_page.setdefault(element.bbox.page, []).append(element)
            b = []
            for page, elements in by_page.items():
                b.append(
                    Bbox(
                        page=page,
                        page_height=elements[0].bbox.page_height,
                        page_width=elements[0].bbox.page_width,
                        x0=min(e.bbox.x0 for e in elements),
                        y0=min(e.bbox.y0 for e in elements),
                        x1=max(e.bbox.x1 for e in elements),
                        y1=max(e.bbox.y1 for e in elements),
                    )
                )
            self._cache["bbox"] = b
        return b

    @property
    def text(self) -> str:
        """Reading-order join of element texts (schemas.py:499-524)."""
        t = self._cache.get("text")
        if t is None:
            sorted_elements = sorted(
                self.elements, key=lambda e: (e.bbox.page, -e.bbox.y1, e.bbox.x0)
            )
            texts: List[str] = []
            for i, current in enumerate(sorted_elements):
                if i > 0:
                    relationship = _determine_relationship(
                        sorted_elements[i - 1], current
                    )
                    if relationship == "same-line":
                        texts.append(" ")
                    elif relationship == "same-paragraph":
                        texts.append("\n")
                    else:
                        texts.append(consts.ELEMENT_DELIMITER)
                texts.append(current.embed_text)
            t = "".join(texts)
            self._cache["text"] = t
        return t

    # -- predicates -------------------------------------------------------
    @property
    def is_heading(self) -> bool:
        if self.variant != {"text"}:
            return False
        if not self.is_stub:
            return False
        return all(e.is_heading or e.is_bold for e in self.elements)

    @property
    def starts_with_heading(self) -> bool:
        if not self.variant == {"text"}:
            return False
        return self.elements[0].is_heading

    @property
    def starts_with_bullet(self) -> bool:
        first_line = self.text.split(consts.ELEMENT_DELIMITER)[0].strip()
        if not first_line:
            return False
        return bool(BULLET_RE.match(first_line))

    @property
    def ends_with_bullet(self) -> bool:
        last_line = self.text.split(consts.ELEMENT_DELIMITER)[-1].strip()
        if not last_line:
            return False
        return bool(BULLET_RE.match(last_line))

    @property
    def is_stub(self) -> bool:
        return self.tokens < consts.STUB_TOKEN_LIMIT

    @property
    def is_small(self) -> bool:
        return self.tokens < consts.TOKENIZATION_LOWER_LIMIT

    @property
    def is_large(self) -> bool:
        return self.tokens > consts.TOKENIZATION_UPPER_LIMIT

    @property
    def num_pages(self) -> int:
        return len({e.bbox.page for e in self.elements})

    @property
    def start_page(self) -> int:
        return min(e.bbox.page for e in self.elements)

    @property
    def end_page(self) -> int:
        return max(e.bbox.page for e in self.elements)

    @property
    def reading_order(self) -> Tuple[int, float, float]:
        """(min_page, -min_y0, min_x0) sort key (schemas.py:580-598)."""
        r = self._cache.get("reading_order")
        if r is None:
            r = (
                min(e.bbox.page for e in self.elements),
                -min(e.bbox.y0 for e in self.elements),
                min(e.bbox.x0 for e in self.elements),
            )
            self._cache["reading_order"] = r
        return r

    def overlaps(self, other: "Node", x_error_margin=0.0, y_error_margin=0.0) -> bool:
        """Any-page bbox overlap with margins (schemas.py:600-622)."""
        for bbox in self.bbox:
            for other_bbox in other.bbox:
                if other_bbox.page != bbox.page:
                    continue
                x_overlap = not (
                    bbox.x0 - x_error_margin > other_bbox.x1 + x_error_margin
                    or other_bbox.x0 - x_error_margin > bbox.x1 + x_error_margin
                )
                y_overlap = not (
                    bbox.y0 - y_error_margin > other_bbox.y1 + y_error_margin
                    or other_bbox.y0 - y_error_margin > bbox.y1 + y_error_margin
                )
                if x_overlap and y_overlap:
                    return True
        return False

    def __lt__(self, other: "Node") -> bool:
        return self.reading_order < other.reading_order

    def __add__(self, other: "Node") -> "Node":
        if not isinstance(other, Node):
            return NotImplemented
        return Node(elements=self.elements + other.elements)

    def __eq__(self, other):
        return isinstance(other, Node) and self.elements == other.elements

    def __repr__(self):
        return f"Node({len(self.elements)} elements, text={self.text[:40]!r})"
