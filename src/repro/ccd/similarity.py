"""Fingerprint similarity: edit distance and the order-independent score.

Implements the similarity function of Section 5.5:

.. math::

    \\delta(s_1, s_2) = \\frac{\\max(len(s_1), len(s_2)) - d(s_1, s_2)}
                             {\\max(len(s_1), len(s_2))} \\cdot 100

and Algorithm 1, which matches every sub-fingerprint of :math:`f_1` against
all sub-fingerprints of :math:`f_2`, keeps the best match per
sub-fingerprint, and averages the maxima.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.ccd.fingerprint import Fingerprint


def _strip_common_affixes(first: str, second: str) -> tuple[str, str]:
    """Drop the shared prefix and suffix — they never contribute to the distance."""
    start = 0
    shortest = min(len(first), len(second))
    while start < shortest and first[start] == second[start]:
        start += 1
    end_first, end_second = len(first), len(second)
    while end_first > start and end_second > start \
            and first[end_first - 1] == second[end_second - 1]:
        end_first -= 1
        end_second -= 1
    return first[start:end_first], second[start:end_second]


def edit_distance(first: str, second: str) -> int:
    """Levenshtein edit distance between two strings (iterative, O(n*m)).

    Fast paths handle the shapes that dominate fingerprint matching
    before the quadratic loop runs: equal strings, strings that are
    equal after stripping their common prefix/suffix (one stretch of
    insertions — e.g. one string is a prefix of the other, where the
    distance is just the length difference), and single-character
    remainders.
    """
    if first == second:
        return 0
    first, second = _strip_common_affixes(first, second)
    if not first:
        return len(second)
    if not second:
        return len(first)
    if len(first) < len(second):
        first, second = second, first
    if len(second) == 1:
        # align the lone character to a match if one exists: then the
        # rest are deletions; otherwise one of them is a substitution
        return len(first) - (1 if second in first else 0)
    previous = list(range(len(second) + 1))
    for row, char_first in enumerate(first, start=1):
        current = [row]
        for column, char_second in enumerate(second, start=1):
            insert_cost = current[column - 1] + 1
            delete_cost = previous[column] + 1
            substitute_cost = previous[column - 1] + (0 if char_first == char_second else 1)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


@lru_cache(maxsize=65536)
def _myers_masks(pattern: str) -> dict:
    """Per-character match bitmasks of ``pattern`` (Myers' ``Peq`` table).

    Bit ``i`` of ``masks[c]`` is set when ``pattern[i] == c``.  Cached:
    sub-fingerprints repeat heavily across pairs, and the same pattern is
    matched against many texts — the mask table is the per-pattern setup
    cost of the bit-parallel kernel.
    """
    masks: dict = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    return masks


def myers_bounded_edit_distance(first: str, second: str, limit: int) -> Optional[int]:
    """Levenshtein distance when it is at most ``limit``, else ``None``.

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyrö's
    formulation: one column of the DP matrix per character of the
    shorter string (the *text*), the whole longer string (the *pattern*)
    held in big-int bitvectors (``VP``/``VN`` delta encoding) — 64 DP
    cells advance per machine word per step, with Python's
    arbitrary-width ints extending past 64 pattern characters for free.

    The loop abandons as soon as the running score minus the remaining
    text length proves the final distance must exceed ``limit`` (the
    score changes by at most 1 per text character).  The cutoff is
    tracked as a budget counter, ``limit + remaining - score``, folded
    into the score branches so the hot loop carries no extra compare.
    When the distance is within the limit the returned value is exactly
    the Levenshtein distance of :func:`edit_distance`.
    """
    if first == second:
        return 0
    if limit <= 0:
        return None
    # d(s1, s2) >= |len(s1) - len(s2)|: a limit below the length difference
    # can never be met, so bail before even touching the characters (the
    # affix strip below preserves the length difference, so nothing is lost)
    if abs(len(first) - len(second)) > limit:
        return None
    first, second = _strip_common_affixes(first, second)
    if not first:
        return len(second) if len(second) <= limit else None
    if not second:
        return len(first) if len(first) <= limit else None
    if len(first) < len(second):
        first, second = second, first
    if len(second) == 1:
        distance = len(first) - (1 if second in first else 0)
        return distance if distance <= limit else None
    # pattern = longer string (bitvector width), text = shorter (loop count)
    length = len(first)
    mask = (1 << length) - 1
    high = 1 << (length - 1)
    get = _myers_masks(first).get
    vp = mask
    vn = 0
    score = length
    # budget < 0 <=> score - remaining > limit: the final distance cannot
    # come back under the limit (each text char moves the score by <= 1)
    budget = limit + len(second) - score
    for char in second:
        eq = get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (mask & ~(xh | vp))
        hn = vp & xh
        if hp & high:
            score += 1
            budget -= 2
            if budget < 0:
                return None
        elif hn & high:
            score -= 1
        else:
            budget -= 1
            if budget < 0:
                return None
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (mask & ~(xv | hp))
        vn = hp & xv
    return score if score <= limit else None


def myers_word_count(first: str, second: str) -> int:
    """Machine words the bit-parallel kernel advances for one pair.

    One 64-bit word per 64 pattern characters, per text character —
    the profile counter behind ``MatchStats.myers_words``.
    """
    longer, shorter = (first, second) if len(first) >= len(second) else (second, first)
    return ((len(longer) + 63) >> 6) * max(1, len(shorter))


def sub_fingerprint_similarity(first: str, second: str) -> float:
    """The per-pair similarity δ in percent (0..100)."""
    longest = max(len(first), len(second))
    if longest == 0:
        return 100.0
    distance = edit_distance(first, second)
    return (longest - distance) / longest * 100.0


def order_independent_similarity(first: Fingerprint | Sequence[str], second: Fingerprint | Sequence[str]) -> float:
    """Algorithm 1: the order-independent similarity score ε in percent.

    Every sub-fingerprint of ``first`` is matched against all
    sub-fingerprints of ``second``; the best score per sub-fingerprint is
    kept and the scores are averaged.  The score is therefore asymmetric by
    design: it measures how well ``first`` (the snippet) is *contained* in
    ``second`` (the contract).
    """
    first_subs = list(first.sub_fingerprints) if isinstance(first, Fingerprint) else list(first)
    second_subs = list(second.sub_fingerprints) if isinstance(second, Fingerprint) else list(second)
    first_subs = [sub for sub in first_subs if sub]
    second_subs = [sub for sub in second_subs if sub]
    if not first_subs or not second_subs:
        return 0.0
    best_scores: list[float] = []
    for sub_first in first_subs:
        best = 0.0
        for sub_second in second_subs:
            score = sub_fingerprint_similarity(sub_first, sub_second)
            if score > best:
                best = score
                if best >= 100.0:
                    break
        best_scores.append(best)
    return sum(best_scores) / len(best_scores)
