"""Tolerant Solidity lexer.

The lexer turns source text into a flat stream of :class:`Token` objects.
It is intentionally forgiving: unknown characters become ``ERROR`` tokens
instead of raising, and the ``...`` placeholder frequently found in Q&A
snippets is lexed as a dedicated ``ELLIPSIS`` token that the parser skips
(Section 4.1 of the paper, "Placeholders").

One compiled master pattern holds a named alternative per token kind,
tried in order at each position, and one ``finditer`` loop turns its
matches into tokens (the "Writing a Tokenizer" recipe of the :mod:`re`
documentation).  Each token records its start offset, so callers cut
source text without re-deriving positions from lines and columns.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class TokenType(enum.Enum):
    """Categories of lexical tokens."""

    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    HEX_LITERAL = "hex"
    PUNCTUATION = "punctuation"
    OPERATOR = "operator"
    ELLIPSIS = "ellipsis"
    ERROR = "error"
    EOF = "eof"


#: Words that the lexer classifies as keywords.  Type names such as
#: ``uint256`` are recognised separately by the parser so they can still be
#: used as identifiers in tolerant mode.
KEYWORDS = frozenset(
    {
        "pragma", "import", "contract", "interface", "library", "abstract",
        "function", "modifier", "event", "struct", "enum", "mapping", "using",
        "constructor", "fallback", "receive", "is", "new", "delete", "emit",
        "return", "returns", "if", "else", "for", "while", "do", "break",
        "continue", "throw", "try", "catch", "assembly", "unchecked",
        "public", "private", "internal", "external", "pure", "view",
        "payable", "constant", "immutable", "virtual", "override",
        "anonymous", "indexed", "storage", "memory", "calldata", "error",
        "true", "false", "var", "let",
    }
)

#: Operators in the order they are tried: the first that matches wins, so
#: ``>>>`` lexes as ``>>`` then ``>``.  ``...`` is the ELLIPSIS token.
_OPERATORS = (
    ">>>=", "<<=", ">>=", "**=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "|=", "&=", "^=", "<<", ">>", "**", "=>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
)

#: Stand-ins for the numerics that are neither decimal digits nor letters.
#: A number starts on ``str.isdigit`` and a word on ``str.isalpha``, but
#: ``\d`` is ``str.isdecimal`` and ``\w`` is ``str.isalnum`` plus ``_``.
#: :func:`tokenize` maps each numeric in between onto ``²`` (a digit, not
#: decimal) or ``½`` (neither), which the pattern names explicitly.
_DIGIT, _NUMERIC = "²", "½"

_DIGITS = rf"[\d{_DIGIT}_]*"
_FRACTION = rf"\.(?=[\d{_DIGIT}]){_DIGITS}"
_EXPONENT = rf"[eE](?:[+-]|(?=[\d{_DIGIT}])|\Z){_DIGITS}"

#: One alternative per token kind.  Where two kinds share a first
#: character, the earlier one wins: comments before ``/``, hex before
#: decimal, the ellipsis before ``.``.  Persisted fingerprints and
#: function digests hash these tokens, so two quirks stay: a ``0`` at the
#: end of input is a hex literal, and an exponent marker needs no digits
#: after it.
_MASTER = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("SPACE", r"[ \t\r\f\v]+"),
    ("WORD", rf"(?:[^\W\d{_DIGIT}{_NUMERIC}]|\$)[\w$]*"),
    ("NEWLINE", r"\n"),
    ("COMMENT", r"//[^\n]*|/\*(?:.*?\*/|.*)"),
    ("STRING", r'"(?P<DOUBLE>(?:[^"\\\n]|\\.?)*)"?|'
               r"'(?P<SINGLE>(?:[^'\\\n]|\\.?)*)'?"),
    ("HEX_LITERAL", r"0(?:[xX]\w*|\Z)"),
    ("NUMBER", rf"[\d{_DIGIT}]{_DIGITS}(?:{_FRACTION}(?:{_EXPONENT})?"
               rf"|{_EXPONENT}(?:{_FRACTION})?)?"),
    ("ELLIPSIS", r"\.\.\."),
    ("OPERATOR", "|".join(map(re.escape, _OPERATORS))),
    ("PUNCTUATION", r"[(){}\[\];,:.]"),
    ("ERROR", r"."),
)), re.DOTALL)

#: the kinds whose match is the token's value
_TOKEN_TYPES = {kind: TokenType[kind] for kind in (
    "HEX_LITERAL", "NUMBER", "ELLIPSIS", "OPERATOR", "PUNCTUATION", "ERROR")}

#: Elementary type name prefixes; ``uintN``/``intN``/``bytesN`` are matched
#: by :func:`is_elementary_type`.
_ELEMENTARY_TYPES = {"address", "bool", "string", "bytes", "byte", "fixed", "ufixed", "var"}


def is_elementary_type(name: str) -> bool:
    """Return ``True`` when ``name`` is an elementary Solidity type name."""
    if name in _ELEMENTARY_TYPES:
        return True
    for prefix in ("uint", "int", "bytes", "fixed", "ufixed"):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix == "" or suffix.isdigit():
                return True
    return False


@dataclass(slots=True)
class Token:
    """A single lexical token with its source location.

    ``offset`` is the index of the token's first character in the source
    (of the opening quote, for a ``STRING`` whose value is its contents).
    """

    type: TokenType
    value: str
    line: int
    column: int
    preceded_by_newline: bool = False
    offset: int = 0

    def is_punct(self, value: str) -> bool:
        return self.type is TokenType.PUNCTUATION and self.value == value

    def is_op(self, value: str) -> bool:
        return self.type is TokenType.OPERATOR and self.value == value

    def is_keyword(self, value: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == value

    def is_identifier(self, value: str | None = None) -> bool:
        if self.type is not TokenType.IDENTIFIER:
            return False
        return value is None or self.value == value

    def __repr__(self):
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


def _stand_ins(source: str) -> str:
    """``source`` with each in-between numeric replaced by its stand-in.

    The replacement keeps every length, so matches over the result carry
    their offsets back to ``source``.
    """
    table = {}
    for char in set(source):
        if char.isnumeric() and not (char.isdecimal() or char.isalpha()):
            table[ord(char)] = _DIGIT if char.isdigit() else _NUMERIC
    return source.translate(table) if table else source


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` and return the token list (EOF-terminated).

    Newlines and comments yield no token.  A newline sets
    ``preceded_by_newline`` on the next token, and a comment clears it.
    """
    source = source or ""
    text = source if source.isascii() else _stand_ins(source)
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pending = 1, 0, False
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        if kind == "SPACE":
            continue
        start = match.start()
        if kind == "NEWLINE":
            line += 1
            line_start = start + 1
            pending = True
            continue
        end = match.end()
        if kind == "WORD":
            value = source[start:end]
            append(Token(TokenType.KEYWORD if value in KEYWORDS else TokenType.IDENTIFIER,
                         value, line, start - line_start + 1, pending, start))
        elif kind == "COMMENT" or kind == "STRING":
            if kind == "STRING":
                body_start, body_end = match.span("DOUBLE" if text[start] == '"' else "SINGLE")
                append(Token(TokenType.STRING, source[body_start:body_end],
                             line, start - line_start + 1, pending, start))
            last_newline = text.rfind("\n", start, end)
            if last_newline >= 0:
                line += text.count("\n", start, end)
                line_start = last_newline + 1
        else:
            append(Token(_TOKEN_TYPES[kind], source[start:end],
                         line, start - line_start + 1, pending, start))
        pending = False
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1, pending, len(source)))
    return tokens
