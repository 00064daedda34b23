"""Context-triggered piecewise (fuzzy) hashing — the ssdeep substitute.

The paper condenses the normalized, tokenized source into a short
*fingerprint* using ssdeep (Section 5.4): the token stream is split into
pieces, each piece is hashed independently, and the piece hashes are
concatenated into a base-64 string.  A local modification of the source
therefore only changes a local region of the fingerprint.

This module re-implements that scheme from scratch:

* tokens are fed one by one (as the paper does with ssdeep),
* a rolling hash over the most recent tokens decides piece boundaries
  ("context triggered"),
* each piece is hashed with FNV-1a and mapped to a base-64 character,
* the concatenation of piece characters is the fuzzy hash of the token
  stream.
"""

from __future__ import annotations

from typing import Iterable

#: The base-64 alphabet used for piece hashes (same ordering as ssdeep).
BASE64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes, seed: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash."""
    value = seed
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _FNV_MASK
    return value


class _RollingHash:
    """A small rolling hash over a sliding window of token hashes.

    The window plays the role of ssdeep's 7-byte rolling hash: it provides
    the "context" that triggers piece boundaries, so identical token
    subsequences produce identical boundaries regardless of what precedes
    them far away.
    """

    def __init__(self, window: int = 4):
        self.window = window
        self._values: list[int] = []

    def update(self, token_hash: int) -> int:
        self._values.append(token_hash)
        if len(self._values) > self.window:
            self._values.pop(0)
        state = 0
        for index, value in enumerate(self._values):
            state = (state + (value >> (index % 13))) & _FNV_MASK
        return state


class FuzzyHasher:
    """Compute context-triggered piecewise hashes of token streams.

    Parameters
    ----------
    block_size:
        Average number of tokens per piece.  Small values produce longer
        fingerprints with finer granularity; the default of 2 keeps the
        fingerprint roughly half as long as the token stream, comparable to
        the per-token feeding used in the paper.
    window:
        Size of the rolling-hash context window.
    """

    def __init__(self, block_size: int = 2, window: int = 4):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self.window = window

    def hash_tokens(self, tokens: Iterable[str]) -> str:
        """Return the fuzzy hash (base-64 string) of a token stream."""
        rolling = _RollingHash(self.window)
        digest_chars: list[str] = []
        piece_hash = _FNV_OFFSET
        piece_length = 0
        for token in tokens:
            token_bytes = token.encode("utf-8", errors="replace")
            token_hash = _fnv1a(token_bytes)
            piece_hash = _fnv1a(token_bytes, piece_hash)
            piece_length += 1
            context = rolling.update(token_hash)
            # trigger: the rolling context hits the block boundary, or the
            # piece grew past twice the target block size
            if context % self.block_size == self.block_size - 1 or piece_length >= 2 * self.block_size:
                digest_chars.append(BASE64_ALPHABET[piece_hash % 64])
                piece_hash = _FNV_OFFSET
                piece_length = 0
        if piece_length:
            digest_chars.append(BASE64_ALPHABET[piece_hash % 64])
        return "".join(digest_chars)

    def hash_text(self, text: str) -> str:
        """Fuzzy-hash whitespace-separated text (convenience wrapper)."""
        return self.hash_tokens(text.split())


def fuzzy_hash_tokens(tokens: Iterable[str], block_size: int = 2, window: int = 4) -> str:
    """Module-level convenience wrapper around :class:`FuzzyHasher`."""
    return FuzzyHasher(block_size=block_size, window=window).hash_tokens(tokens)
