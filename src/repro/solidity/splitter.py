"""Conservative function-boundary splitter for incremental analysis.

:func:`split_source` cuts a Solidity source into per-function token spans
*without* building an AST, mirroring the dispatch rules of
:class:`~repro.solidity.parser.Parser` closely enough that each span can
be (re)parsed standalone and normalized to exactly the sub-fingerprint
the whole-source pipeline would produce.  The artifact layer
(:mod:`repro.core.artifacts`) uses the spans as content-hash keys into a
function-level digest cache, so editing one function of a large source
re-normalizes only that function.

The splitter is deliberately *conservative*: any construct whose token
consumption it cannot mirror exactly — placeholder/error tokens, nested
contracts, loose statements, multi-line declarations, unusual headers —
makes it return ``None``, and the caller falls back to the whole-source
path.  A wrong split can therefore only cost speed, never correctness:
cached digests are keyed by the exact token stream of their span, and a
span is only ever digested from a warning-free parse of that stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.solidity.lexer import Token, TokenType, tokenize
from repro.solidity.parser import Parser

#: keywords that begin a function-shaped contract part (label ``f``)
_FUNCTION_KEYWORDS = frozenset({"function", "constructor", "fallback", "receive"})

#: header keywords the function-name rule must not swallow
_VISIBILITIES = frozenset({"public", "private", "internal", "external"})
_MUTABILITIES = frozenset({"pure", "view", "payable", "constant"})

#: keywords that end a single-statement skip region (a construct boundary
#: the parser would dispatch on — reaching one mid-declaration means the
#: declaration is stranger than we model, so the split bails)
_BAIL_KEYWORDS = frozenset({
    "contract", "interface", "library", "abstract", "function", "modifier",
    "event", "struct", "enum", "using", "pragma", "import",
    "constructor", "fallback", "receive",
})


@dataclass(frozen=True)
class FunctionSpan:
    """One function/modifier region of a source, keyed by its token stream.

    ``label`` is the normalization label the whole-source pipeline would
    use (``"f"`` for functions and free modifiers, ``"m"`` for modifiers
    inside a contract body); ``construct`` records which parser production
    the span came from (``"function"`` or ``"modifier"``), which is what a
    standalone re-parse of ``text`` must yield.  ``key`` hashes the label
    together with the span's exact token stream, so two spans share a key
    exactly when they normalize identically.
    """

    label: str
    construct: str
    key: str
    text: str
    start_line: int
    end_line: int


@dataclass
class SourceSplit:
    """The function spans of one source, grouped like its fingerprint.

    ``groups`` holds one list of spans per normalized contract group, in
    fingerprint order: each real contract in source order, then (when the
    source has free functions or modifiers) one final group of the free
    spans.  Groups of function-less contracts are empty lists — they still
    contribute an (empty) ``:``-separated segment to the fingerprint text.
    """

    groups: List[List[FunctionSpan]] = field(default_factory=list)

    @property
    def spans(self) -> List[FunctionSpan]:
        """All spans across groups, in fingerprint order."""
        return [span for group in self.groups for span in group]


def span_key(label: str, tokens: List[Token]) -> str:
    """The content key of a span: label + exact token stream.

    The first token's newline flag is normalized to ``True`` so the key is
    stable whether the span sat mid-line or at a line start — a standalone
    re-parse prepends a newline, giving the first token that same flag.
    """
    hasher = hashlib.sha256()
    hasher.update(label.encode("ascii"))
    for index, token in enumerate(tokens):
        flag = "1" if (index == 0 or token.preceded_by_newline) else "0"
        hasher.update(f"\x1e{token.type.name}\x1f{token.value}\x1f{flag}"
                      .encode("utf-8", "replace"))
    return hasher.hexdigest()


class _Splitter:
    """One splitting pass over a token stream (see :func:`split_source`)."""

    def __init__(self, source: str, tokens: List[Token]):
        self.source = source
        self.tokens = tokens
        # a real parser over the same tokens lends its state-variable
        # lookahead heuristics — the split must agree with the genuine
        # dispatch, not an approximation of it
        self.parser = Parser(source, snippet_mode=True, tokens=tokens)

    # -- span construction -----------------------------------------------------
    def _make_span(self, label: str, construct: str, start: int, end: int) -> FunctionSpan:
        tokens = self.tokens[start:end]
        return FunctionSpan(
            label=label,
            construct=construct,
            key=span_key(label, tokens),
            text=self.source[self.tokens[start].offset:self.tokens[end].offset],
            start_line=tokens[0].line,
            end_line=tokens[-1].line,
        )

    # -- low-level scanners ----------------------------------------------------
    def _eof(self, index: int) -> bool:
        return self.tokens[index].type is TokenType.EOF

    def _scan_braced(self, index: int) -> Optional[int]:
        """Index after the brace block opening at ``index`` (balanced)."""
        depth = 0
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                depth -= 1
                if depth == 0:
                    return index + 1
            index += 1
        return None

    def _scan_parens(self, index: int, allow_nested: bool) -> Optional[int]:
        """Index after the paren group opening at ``index``.

        With ``allow_nested`` false the group must be flat — nested parens
        mean function-type parameters or expression arguments whose exact
        consumption we do not model.  Braces or semicolons inside any
        group always bail: the parser's recovery could escape the group.
        """
        depth = 0
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_punct("("):
                depth += 1
                if depth > 1 and not allow_nested:
                    return None
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    return index + 1
            elif token.is_punct("{") or token.is_punct("}") or token.is_punct(";"):
                return None
            index += 1
        return None

    def _scan_function(self, index: int) -> Optional[int]:
        """Index after a function/constructor/fallback/receive definition.

        Mirrors ``Parser._parse_function`` token for token; any header
        token outside the modeled grammar (including the snippet-mode
        newline termination of body-less headers) bails.
        """
        kind = self.tokens[index].value
        index += 1
        token = self.tokens[index]
        if (kind == "function"
                and token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD)
                and token.value not in _VISIBILITIES
                and token.value not in _MUTABILITIES):
            index += 1  # the function name
        if self.tokens[index].is_punct("("):
            index = self._scan_parens(index, allow_nested=False)
            if index is None:
                return None
        while True:
            token = self.tokens[index]
            if token.type is TokenType.EOF:
                return None
            if token.is_punct("{"):
                return self._scan_braced(index)
            if token.is_punct(";"):
                return index + 1
            if token.type is TokenType.KEYWORD and (
                    token.value in _VISIBILITIES or token.value in _MUTABILITIES
                    or token.value == "virtual"):
                index += 1
            elif token.is_keyword("override") or token.is_keyword("returns"):
                nested = token.value == "override"
                index += 1
                if self.tokens[index].is_punct("("):
                    index = self._scan_parens(index, allow_nested=nested)
                    if index is None:
                        return None
            elif token.type is TokenType.IDENTIFIER:
                index += 1  # a modifier invocation
                if self.tokens[index].is_punct("("):
                    index = self._scan_parens(index, allow_nested=True)
                    if index is None:
                        return None
            else:
                return None

    def _scan_modifier(self, index: int) -> Optional[int]:
        """Index after a modifier definition (mirrors ``_parse_modifier``)."""
        index += 1
        token = self.tokens[index]
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            index += 1  # the modifier name
        if self.tokens[index].is_punct("("):
            index = self._scan_parens(index, allow_nested=False)
            if index is None:
                return None
        while (self.tokens[index].is_keyword("virtual")
               or self.tokens[index].is_keyword("override")):
            index += 1
        if self.tokens[index].is_punct("{"):
            return self._scan_braced(index)
        if self.tokens[index].is_punct(";"):
            return index + 1
        return None

    def _scan_declaration(self, index: int) -> Optional[int]:
        """Index after a single-line, ``;``-terminated declaration.

        Covers the fingerprint-neutral parts (events, error definitions,
        using-for, state variables).  A newline, brace, top-level comma,
        or construct keyword before the ``;`` means the parser's
        consumption could diverge from this scan — bail.
        """
        start = index
        depth = 0
        while not self._eof(index):
            token = self.tokens[index]
            if index > start and token.preceded_by_newline:
                return None
            if token.is_punct("(") or token.is_punct("["):
                depth += 1
            elif token.is_punct(")") or token.is_punct("]"):
                depth -= 1
                if depth < 0:
                    return None
            elif token.is_punct("{") or token.is_punct("}"):
                return None
            elif depth == 0 and token.is_punct(","):
                return None
            elif depth == 0 and token.is_punct(";"):
                return index + 1
            elif (depth == 0 and index > start
                    and token.type is TokenType.KEYWORD
                    and token.value in _BAIL_KEYWORDS):
                return None
            index += 1
        return None

    def _scan_type_container(self, index: int) -> Optional[int]:
        """Index after a struct/enum definition (bounded by its first ``}``)."""
        index += 1
        if self._eof(index):
            return None
        if not self.tokens[index].is_punct("{"):
            index += 1  # the name (the parser consumes any token here)
        if not self.tokens[index].is_punct("{"):
            return None
        index += 1
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_punct("{"):
                return None  # a nested brace inside members: not modeled
            if token.is_punct("}"):
                return index + 1
            index += 1
        return None

    def _scan_pragma(self, index: int) -> Optional[int]:
        """Index after a top-level pragma (mirrors ``_parse_pragma``)."""
        index += 1
        token = self.tokens[index]
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            if token.preceded_by_newline:
                return None  # the parser would swallow the next construct
            index += 1
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_punct(";"):
                return index + 1
            if token.preceded_by_newline:
                return index
            index += 1
        return index

    def _scan_import(self, index: int) -> Optional[int]:
        """Index after a top-level import (mirrors ``_parse_import``)."""
        index += 1
        path_seen = False
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_punct(";"):
                return index + 1
            if token.preceded_by_newline and path_seen:
                return index
            if token.type is TokenType.STRING:
                path_seen = True
            index += 1
        return index

    # -- structure -------------------------------------------------------------
    def _scan_contract(self, index: int) -> Optional[tuple]:
        """``(spans, index_after)`` of one contract definition, or ``None``.

        The header must be the plain shape ``[abstract] kind [Name]
        [is Base((args))…, …] {`` — keyword names or missing braces (both
        of which the tolerant parser accepts with surprising consumption)
        bail.
        """
        if self.tokens[index].is_keyword("abstract"):
            index += 1
            if self.tokens[index].value not in ("contract", "interface", "library") \
                    or self.tokens[index].type is not TokenType.KEYWORD:
                return None
        index += 1  # the contract/interface/library keyword
        if self.tokens[index].type is TokenType.IDENTIFIER:
            index += 1  # the contract name
        elif self.tokens[index].type is TokenType.KEYWORD \
                and not self.tokens[index].is_keyword("is"):
            return None  # the parser would take this keyword as the name
        if self.tokens[index].is_keyword("is"):
            index += 1
            while True:
                token = self.tokens[index]
                if token.type is TokenType.IDENTIFIER:
                    index += 1
                    if self.tokens[index].is_punct("("):
                        index = self._scan_parens(index, allow_nested=True)
                        if index is None:
                            return None
                elif token.type is TokenType.KEYWORD:
                    return None  # keyword base names: not modeled
                if self.tokens[index].is_punct(","):
                    index += 1
                    continue
                break
        if not self.tokens[index].is_punct("{"):
            return None
        index += 1
        spans: List[FunctionSpan] = []
        while not self.tokens[index].is_punct("}"):
            if self._eof(index):
                return None
            result = self._scan_part(index, top_level=False)
            if result is None:
                return None
            span, index = result
            if span is not None:
                spans.append(span)
        return spans, index + 1

    def _scan_part(self, index: int, top_level: bool) -> Optional[tuple]:
        """``(span_or_None, index_after)`` of one contract part, or ``None``.

        Mirrors ``_parse_contract_part_or_statement``: function-shaped
        parts become spans, fingerprint-neutral declarations are skipped,
        and everything the whole-source pipeline would tokenize as a
        loose statement (which this splitter cannot reproduce) bails.
        """
        token = self.tokens[index]
        if token.type is TokenType.KEYWORD and token.value in _FUNCTION_KEYWORDS:
            end = self._scan_function(index)
            if end is None:
                return None
            return self._make_span("f", "function", index, end), end
        if token.is_keyword("modifier"):
            end = self._scan_modifier(index)
            if end is None:
                return None
            label = "f" if top_level else "m"
            return self._make_span(label, "modifier", index, end), end
        if token.is_keyword("event") or token.is_keyword("using"):
            end = self._scan_declaration(index)
            return None if end is None else (None, end)
        if (token.is_keyword("error")
                and self.tokens[index + 1].type is TokenType.IDENTIFIER
                and self.tokens[min(index + 2, len(self.tokens) - 1)].is_punct("(")):
            end = self._scan_declaration(index)
            return None if end is None else (None, end)
        if token.is_keyword("struct") or token.is_keyword("enum"):
            end = self._scan_type_container(index)
            return None if end is None else (None, end)
        if token.type is TokenType.KEYWORD and token.value in (
                "pragma", "import", "contract", "interface", "library"):
            return None  # directives/nested contracts in a body: not modeled
        self.parser.pos = index
        if self.parser._looks_like_state_variable() and (
                not top_level or self.parser._is_simple_declaration_line()):
            end = self._scan_declaration(index)
            return None if end is None else (None, end)
        return None  # a loose statement — it would enter the fingerprint

    def split(self) -> Optional[SourceSplit]:
        groups: List[List[FunctionSpan]] = []
        free_spans: List[FunctionSpan] = []
        index = 0
        while not self._eof(index):
            token = self.tokens[index]
            if token.is_keyword("pragma"):
                index = self._scan_pragma(index)
            elif token.is_keyword("import"):
                index = self._scan_import(index)
            elif token.type is TokenType.KEYWORD and token.value in (
                    "abstract", "contract", "interface", "library"):
                result = self._scan_contract(index)
                if result is None:
                    return None
                spans, index = result
                groups.append(spans)
            else:
                result = self._scan_part(index, top_level=True)
                if result is None:
                    return None
                span, index = result
                if span is not None:
                    free_spans.append(span)
            if index is None:
                return None
        if free_spans:
            groups.append(free_spans)
        return SourceSplit(groups=groups)


def split_source(source: str,
                 tokens: Optional[List[Token]] = None) -> Optional[SourceSplit]:
    """Split ``source`` into per-function spans, or ``None`` when unsafe.

    A successful split decomposes the source into function/modifier spans
    plus fingerprint-neutral regions, grouped exactly like the contracts
    of its normalized fingerprint.  ``None`` means the source uses
    constructs the conservative scanner does not model — callers must use
    the whole-source path.  ``tokens`` is ``tokenize(source)`` when the
    caller has lexed it already.
    """
    source = source or ""
    if tokens is None:
        tokens = tokenize(source)
    if any(token.type in (TokenType.ELLIPSIS, TokenType.ERROR) for token in tokens):
        return None
    try:
        return _Splitter(source, tokens).split()
    except (IndexError, RecursionError):
        return None


__all__ = ["FunctionSpan", "SourceSplit", "span_key", "split_source"]
