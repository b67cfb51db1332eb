"""Char-stream → span grouping.

Re-implements the reference's pdfminer char pipeline semantics
(reference: src/openparse/text/pdfminer/core.py:23-157) over plain tuples.
The HTML layout engine (functions/html.py) emits the same char stream shape,
so one grouping kernel serves both payloads. Whitespace handling — multi-
space compression and the trailing-single-space rule — is part of the
byte-identity contract (core.py:107-123).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from open_parse_ray.model import LineElement, TextSpan


class CharElement:
    """One character + font info (reference: text/pdfminer/core.py:23-40).

    ``size`` is rounded to 2 decimals at construction (core.py:36-39);
    bold/italic are inferred from the fontname substring (core.py:28-34).
    """

    __slots__ = ("text", "fontname", "size")

    def __init__(self, text: str, fontname: str, size: float):
        self.text = text
        self.fontname = fontname
        self.size = round(size, 2)

    @property
    def is_bold(self) -> bool:
        return "Bold" in self.fontname or "bold" in self.fontname

    @property
    def is_italic(self) -> bool:
        return "Italic" in self.fontname or "italic" in self.fontname

    def __eq__(self, other):
        return (
            isinstance(other, CharElement)
            and self.text == other.text
            and self.fontname == other.fontname
            and self.size == other.size
        )

    def __repr__(self):
        return f"CharElement({self.text!r}, {self.fontname!r}, {self.size})"


def extract_chars(
    raw_chars: Iterable[Tuple[str, Optional[str], Optional[float]]],
) -> List[CharElement]:
    """Build CharElements from (text, fontname, size) triples.

    Entries with fontname/size of None are annotation characters that
    inherit the most recent real char's font (reference: core.py:43-67,
    including the rule that leading annotations take the *first* real
    char's font).
    """
    raw_chars = list(raw_chars)
    chars: List[CharElement] = []
    last_fontname = next((f for _, f, _ in raw_chars if f is not None), "")
    last_size = next((s for _, _, s in raw_chars if s is not None), 0.0)
    for text, fontname, size in raw_chars:
        if fontname is not None:
            last_fontname = fontname
            last_size = size
        chars.append(CharElement(text=text, fontname=last_fontname, size=last_size))
    return chars


_FONT_STYLE_CACHE: dict = {}


def _font_style(fontname: str) -> Tuple[bool, bool]:
    st = _FONT_STYLE_CACHE.get(fontname)
    if st is None:
        st = (
            "Bold" in fontname or "bold" in fontname,
            "Italic" in fontname or "italic" in fontname,
        )
        _FONT_STYLE_CACHE[fontname] = st
    return st


_WS_SEARCH = __import__("re").compile(r"\s").search
_NON_WS_SEARCH = __import__("re").compile(r"\S").search
_WS_RUN_SUB = __import__("re").compile(r"\s+").sub


def group_char_items_into_spans(
    items: Iterable[Tuple[str, str, float]],
) -> List[TextSpan]:
    """Run-length group (text, fontname, size) items by (bold, italic, size)
    (reference: core.py:99-140).

    Char-for-char equivalent to feeding individual CharElements: a
    multi-char item shares one style, so the style-boundary test fires
    only at its first non-whitespace char; a whitespace run of N chars
    (a whole item or inside a mixed one, such as a wrapped line's slice)
    compresses to the same single space as N whitespace chars would.
    """
    spans: List[TextSpan] = []
    current_text = ""
    current_style = (False, False, 0.0)

    # Hot path: iterate items directly (no generator frames); cache the
    # style tuple per (fontname, size) so the per-item cost is one dict
    # lookup + one tuple compare. Items may carry extra fields (index
    # access).
    style_cache: dict = {}
    ws_search = _WS_SEARCH
    for item in items:
        text = item[0]
        if len(text) != 1 and ws_search(text) is not None and not text.isspace():
            # mixed item (a wrapped line's slice, or a word with embedded
            # whitespace): whitespace before its first word compresses
            # into current_text, and the rest goes on as one word item
            # with every whitespace run compressed to one space — char
            # for char the per-char state machine (\s is exactly
            # str.isspace), without a per-char loop
            i = _NON_WS_SEARCH(text).start()
            if i and not current_text.endswith(" "):
                current_text += " "
            text = _WS_RUN_SUB(" ", text[i:] if i else text)
        elif text == " " or text.isspace():
            # compress runs of whitespace to one space; style unchanged
            if not current_text.endswith(" "):
                current_text += " "
            continue
        key = (item[1], item[2])
        char_style = style_cache.get(key)
        if char_style is None:
            bold, italic = _font_style(item[1])
            char_style = (bold, italic, round(item[2], 2))
            style_cache[key] = char_style
        if char_style != current_style and current_text:
            spans.append(
                TextSpan(
                    text=current_text.rstrip()
                    + (" " if current_text.endswith(" ") else ""),
                    is_bold=current_style[0],
                    is_italic=current_style[1],
                    size=current_style[2],
                )
            )
            current_text = text
        else:
            current_text += text
        current_style = char_style

    if current_text:
        spans.append(
            TextSpan(
                text=current_text.rstrip()
                + (" " if current_text.endswith(" ") else ""),
                is_bold=current_style[0],
                is_italic=current_style[1],
                size=current_style[2],
            )
        )
    return spans


def group_chars_into_spans(chars: Iterable[CharElement]) -> List[TextSpan]:
    """Run-length group chars by (bold, italic, size) (reference: core.py:99-140)."""
    return group_char_items_into_spans((c.text, c.fontname, c.size) for c in chars)


def create_line_element(
    chars: List[CharElement], bbox: Tuple[float, float, float, float]
) -> LineElement:
    """Line from a char stream + geometry (reference: core.py:143-148)."""
    spans = group_chars_into_spans(chars)
    return LineElement(bbox=bbox, spans=tuple(spans))


def lines_bbox(lines: List[LineElement]) -> Tuple[float, float, float, float]:
    """min/max bbox over lines (reference: core.py:151-157)."""
    return (
        min(line.bbox[0] for line in lines),
        min(line.bbox[1] for line in lines),
        max(line.bbox[2] for line in lines),
        max(line.bbox[3] for line in lines),
    )


_MULTISPACE_SUB = __import__("re").compile(r" {2,}").sub


def single_style_span(text: str, fontname: str, size: float) -> TextSpan:
    """Fast path for a line whose slices all share one style and contain
    no whitespace but " ": the run-length state machine degenerates to
    compress-spaces + trailing-space rule over the joined ``text``.
    Byte-identical to group_char_items_into_spans on such input."""
    compressed = _MULTISPACE_SUB(" ", text) if "  " in text else text
    bold, italic = _font_style(fontname)
    return TextSpan(
        text=compressed.rstrip() + (" " if compressed.endswith(" ") else ""),
        is_bold=bold,
        is_italic=italic,
        size=round(size, 2),
    )
