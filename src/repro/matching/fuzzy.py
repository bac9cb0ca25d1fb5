"""String similarity primitives for syntactic header matching.

The first step of SigmaTyper's pipeline compares column headers against the
labels and synonyms in the type ontology "using fuzzy matching".  This module
implements the standard similarity measures from scratch (no external fuzzy
matching dependency): Levenshtein edit distance/ratio, Jaro and Jaro–Winkler
similarity, and token-based set ratios that are robust to word reordering.

All similarity functions return floats in ``[0, 1]`` where ``1`` means an
exact match, and are case-insensitive after :func:`normalize_header`
tokenisation.

:class:`HeaderScreen` bounds :func:`combined_similarity` from above for many
header × alias pairs at once, so that callers score only the pairs that can
reach their threshold.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

__all__ = [
    "normalize_header",
    "tokenize_header",
    "levenshtein_distance",
    "levenshtein_ratio",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "token_set_ratio",
    "combined_similarity",
    "HeaderScreen",
]

_CAMEL_CASE_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")

#: Header tokens that carry no semantic information on their own.
_STOP_TOKENS = frozenset({"the", "of", "a", "an", "de", "der", "no"})

# :class:`HeaderScreen` bounds the measures below using these same constants,
# so they live here once: changing one here moves its bound.
#: A non-shared token counts towards ``token_set_ratio`` only at or above this
#: Levenshtein ratio against its best partner.
TOKEN_MATCH_CUTOFF = 0.75
#: Jaro–Winkler's default boost per shared prefix character.
WINKLER_PREFIX_SCALE = 0.1
#: Jaro–Winkler counts a shared prefix over at most this many characters.
WINKLER_PREFIX_LENGTH = 4
#: :class:`HeaderScreen` keeps a pair whose bound falls short of the threshold
#: by at most this much.  A bound computed by another formula than its measure
#: (``common/n`` against ``1 - distance/n``), or summed in another order (the
#: token-set ratio adds its tokens in set order), can land an ulp or two below
#: a measure that mathematically equals it; distinct values of these
#: short-string ratios lie orders of magnitude further apart.
_BOUND_SLACK = 1e-9


def normalize_header(header: str) -> str:
    """Lower-case a header and collapse camelCase/punctuation to spaces.

    ``"OrderDate"``, ``"order_date"``, ``"ORDER-DATE"`` and ``"Order Date"``
    all normalise to ``"order date"``.
    """
    if not header:
        return ""
    spaced = _CAMEL_CASE_RE.sub(" ", header)
    lowered = spaced.lower()
    cleaned = _NON_ALNUM_RE.sub(" ", lowered)
    return " ".join(cleaned.split())


def tokenize_header(header: str) -> list[str]:
    """Split a header into informative lower-case tokens."""
    return [token for token in normalize_header(header).split() if token not in _STOP_TOKENS]


def levenshtein_distance(first: str, second: str) -> int:
    """Minimum number of single-character edits turning *first* into *second*.

    Bit-parallel (Myers, JACM 46(3), 1999, in Hyyrö's formulation): the
    longer string is the pattern, one bit per character, and each character
    of the shorter string advances a whole column of the edit-distance matrix
    with a few integer operations.  Python ints are arbitrarily wide
    bit-vectors, so there is no word-size limit.  ``vp``/``vn`` mark the
    rows whose vertical delta is +1/-1, ``hp``/``hn`` the same for the
    horizontal delta, and ``d0`` the rows whose diagonal delta is 0; the
    distance is tracked in the pattern's last row.
    """
    if first == second:
        return 0
    if len(first) < len(second):
        first, second = second, first
    if not second:
        return len(first)
    pattern: dict[str, int] = {}
    bit = 1
    for char in first:
        pattern[char] = pattern.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn = mask, 0
    distance = len(first)
    for char in second:
        eq = pattern.get(char, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (~(d0 | vp) & mask)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
    return distance


def levenshtein_ratio(first: str, second: str) -> float:
    """Normalised edit similarity in ``[0, 1]``."""
    if not first and not second:
        return 1.0
    longest = max(len(first), len(second))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(first, second) / longest


def jaro_similarity(first: str, second: str) -> float:
    """Jaro similarity in ``[0, 1]``."""
    if first == second:
        return 1.0
    if not first or not second:
        return 0.0
    match_window = max(len(first), len(second)) // 2 - 1
    match_window = max(match_window, 0)
    first_matches = [False] * len(first)
    second_matches = [False] * len(second)

    matches = 0
    for i, char in enumerate(first):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(second))
        for j in range(start, end):
            if second_matches[j] or second[j] != char:
                continue
            first_matches[i] = True
            second_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i, matched in enumerate(first_matches):
        if not matched:
            continue
        while not second_matches[j]:
            j += 1
        if first[i] != second[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len(first)
        + matches / len(second)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    first: str, second: str, prefix_scale: float = WINKLER_PREFIX_SCALE
) -> float:
    """Jaro–Winkler similarity: Jaro boosted for a shared prefix (≤ 4 chars)."""
    jaro = jaro_similarity(first, second)
    prefix_length = 0
    for char_a, char_b in zip(first[:WINKLER_PREFIX_LENGTH], second[:WINKLER_PREFIX_LENGTH]):
        if char_a != char_b:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_scale * (1.0 - jaro)


def token_set_ratio(first: str, second: str) -> float:
    """Similarity of the *token sets* of two headers.

    Robust to word order (``"date of birth"`` vs ``"birth date"``) and to one
    header being a subset of the other (``"customer name"`` vs ``"name"``).
    Tokens that do not match exactly contribute their best pairwise
    Levenshtein ratio, so small misspellings degrade gracefully.
    """
    tokens_a = set(tokenize_header(first))
    tokens_b = set(tokenize_header(second))
    if not tokens_a or not tokens_b:
        return 1.0 if tokens_a == tokens_b else 0.0
    if tokens_a == tokens_b:
        return 1.0
    shared = tokens_a & tokens_b
    remaining_a = tokens_a - shared
    remaining_b = tokens_b - shared
    score = len(shared)
    # Sorted, so the float sum does not depend on PYTHONHASHSEED's set order.
    for token in sorted(remaining_a):
        best = max((levenshtein_ratio(token, other) for other in remaining_b), default=0.0)
        score += best if best >= TOKEN_MATCH_CUTOFF else 0.0
    denominator = max(len(tokens_a), len(tokens_b))
    return min(score / denominator, 1.0)


def combined_similarity(first: str, second: str) -> float:
    """The syntactic similarity used by the header-matching step.

    The maximum of character-level (Jaro–Winkler, Levenshtein ratio) and
    token-level similarity on the normalised headers: character measures
    handle abbreviations (``cust_nm`` vs ``customer name``) poorly but
    reordering well, token measures the reverse, so the max is a robust
    compromise for short header strings.
    """
    normalized_a = normalize_header(first)
    normalized_b = normalize_header(second)
    if not normalized_a or not normalized_b:
        return 0.0
    if normalized_a == normalized_b:
        return 1.0
    return max(
        jaro_winkler_similarity(normalized_a, normalized_b),
        levenshtein_ratio(normalized_a, normalized_b),
        token_set_ratio(normalized_a, normalized_b),
    )


#: Normalised headers only contain lower-case letters, digits, and spaces.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "
#: Byte → histogram bin.  Any other ASCII byte shares the first bin, which
#: can only loosen a bound.
_BYTE_INDEX = np.zeros(128, dtype=np.intp)
_BYTE_INDEX[np.frombuffer(_ALPHABET.encode("ascii"), dtype=np.uint8)] = np.arange(len(_ALPHABET))


def _histograms(texts: Sequence[str]) -> np.ndarray:
    """Character histograms of normalised strings, one row per string."""
    width = len(_ALPHABET)
    codes = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    rows = np.repeat(np.arange(len(texts)), [len(text) for text in texts])
    counts = np.bincount(rows * width + _BYTE_INDEX[codes], minlength=len(texts) * width)
    return counts.reshape(len(texts), width).astype(np.float64)


def _overlaps(first: np.ndarray, first_bins: np.ndarray, second: np.ndarray, second_bins: np.ndarray) -> np.ndarray:
    """Characters every row of histogram *first* shares with every row of *second*.

    Sums only over the bins both sides use (*first_bins* & *second_bins*):
    every other term is 0, and the counts are whole numbers, so the sums are
    the ones over all bins.
    """
    used = np.flatnonzero(first_bins & second_bins)
    return np.minimum(first[:, None, used], second[:, used]).sum(axis=2)


class _ScreenSide:
    """One side of the screen: normalised strings as the bounds read them.

    Per string its length, character histogram and Winkler prefix (padded
    with *pad*, which the two sides choose differently so that padding never
    matches); and its distinct informative tokens as offsets into a
    vocabulary that carries one histogram and length per token.  A string
    without informative tokens points at the empty token, so that every
    string owns a segment.  ``bins`` and ``vocabulary_bins`` mark the
    histogram bins any string or token uses.
    """

    def __init__(self, texts: Sequence[str], pad: str) -> None:
        vocabulary: dict[str, int] = {}
        token_ids: list[int] = []
        token_starts: list[int] = []
        token_counts: list[int] = []
        for text in texts:
            # A normalised text's tokens are its words less the stop words.
            tokens = list(dict.fromkeys(word for word in text.split() if word not in _STOP_TOKENS))
            token_starts.append(len(token_ids))
            token_counts.append(len(tokens))
            for token in tokens or [""]:
                token_ids.append(vocabulary.setdefault(token, len(vocabulary)))
        histograms = _histograms([*texts, *vocabulary])
        self.histograms = histograms[: len(texts)]
        self.bins = self.histograms.any(axis=0)
        self.vocabulary_histograms = histograms[len(texts) :]
        self.vocabulary_bins = self.vocabulary_histograms.any(axis=0)
        self.lengths = np.array([len(text) for text in texts], dtype=np.float64)
        self.vocabulary_lengths = np.array([len(token) for token in vocabulary], dtype=np.float64)
        prefixes = "".join(text[:WINKLER_PREFIX_LENGTH].ljust(WINKLER_PREFIX_LENGTH, pad) for text in texts)
        self.prefixes = np.frombuffer(prefixes.encode("ascii"), dtype=np.uint8).reshape(
            len(texts), WINKLER_PREFIX_LENGTH
        )
        self.token_ids = np.array(token_ids, dtype=np.intp)
        self.token_starts = np.array(token_starts, dtype=np.intp)
        self.token_counts = np.array(token_counts, dtype=np.float64)


class HeaderScreen:
    """Exact upper bounds on :func:`combined_similarity` for headers × aliases.

    Built once over a fixed list of normalised, non-empty *aliases*.
    :meth:`survivors` prepares a batch of normalised, non-empty headers (each
    one's histogram, length, Winkler prefix and tokens) and bounds every
    header against every alias in a few numpy passes.  It bounds the three
    measures from the characters and tokens the two strings share:

    * Levenshtein: ``distance >= max_len - common_chars``, so the ratio is at
      most ``common_chars / max_len``.
    * Jaro: matches ``m <= common_chars`` and ``(m - t)/m <= 1``; the Winkler
      boost uses the *actual* shared prefix length (cheap to compute exactly,
      and usually 0), and is monotone in Jaro.
    * Token-set ratio: each header token contributes its best Levenshtein
      bound against the alias's tokens when that bound reaches
      ``TOKEN_MATCH_CUTOFF`` (a shared token's is exactly 1), over
      ``max(len(header_tokens), len(alias_tokens))``.  Bounding over *all* of
      the alias's tokens, not just the unshared ones, only loosens it.  A
      header without informative tokens scores 1 against an alias without
      any and 0 against the rest, as the measure does.
    """

    def __init__(self, aliases: Sequence[str]) -> None:
        self.aliases = list(aliases)
        self._alias_side = _ScreenSide(self.aliases, pad="\x01")

    def survivors(self, headers: Sequence[str], threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (header, alias) pairs that may reach *threshold*, and which need every measure.

        Returns, in row-major order, the header and alias index of every pair
        whose Levenshtein, Jaro–Winkler or token bound reaches *threshold*
        (less ``_BOUND_SLACK``), and for each whether its Levenshtein or token
        bound does.  When neither does, those two measures are provably below
        the threshold, so ``combined_similarity`` (their maximum with
        Jaro–Winkler) reaches it exactly when Jaro–Winkler alone does, and
        then equals it.
        """
        if not headers or not self.aliases:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty, np.zeros(0, dtype=bool)
        side = _ScreenSide(headers, pad="\x02")
        floor = threshold - _BOUND_SLACK
        lev_bound, jw_bound = self._char_bounds(side)
        full = (lev_bound >= floor) | (self._token_bounds(side) >= floor)
        rows, columns = np.nonzero(full | (jw_bound >= floor))
        return rows, columns, full[rows, columns]

    def _char_bounds(self, headers: _ScreenSide) -> tuple[np.ndarray, np.ndarray]:
        """Header × alias bounds on the Levenshtein ratio and Jaro–Winkler."""
        aliases = self._alias_side
        overlaps = _overlaps(headers.histograms, headers.bins, aliases.histograms, aliases.bins)
        header_lengths = headers.lengths[:, None]
        lev_bound = overlaps / np.maximum(aliases.lengths, header_lengths)
        jaro_bound = np.minimum(
            (overlaps / header_lengths + overlaps / aliases.lengths + 1.0) / 3.0, 1.0
        )
        # The shared prefix ends at the first mismatch (one is appended past
        # the end).
        matches = headers.prefixes[:, None, :] == aliases.prefixes
        prefix_lengths = np.argmin(
            np.concatenate([matches, np.zeros((*matches.shape[:2], 1), dtype=bool)], axis=2), axis=2
        )
        jw_bound = np.where(
            overlaps > 0,
            jaro_bound + WINKLER_PREFIX_SCALE * prefix_lengths * (1.0 - jaro_bound),
            0.0,
        )
        return lev_bound, jw_bound

    def _token_bounds(self, headers: _ScreenSide) -> np.ndarray:
        """Header × alias bound on ``token_set_ratio``.

        One pass scores every distinct header token against every distinct
        alias token; the alias incidence then takes each alias's segment
        maximum, and the header incidence sums each header's segment.
        """
        aliases = self._alias_side
        overlaps = _overlaps(
            headers.vocabulary_histograms,
            headers.vocabulary_bins,
            aliases.vocabulary_histograms,
            aliases.vocabulary_bins,
        )
        # Only the empty token has length 0; the floor of 1 keeps it at 0.
        ratios = overlaps / np.maximum(
            np.maximum(headers.vocabulary_lengths[:, None], aliases.vocabulary_lengths), 1.0
        )
        # The cut-off is monotone, so gating before the segment max is exact.
        ratios[ratios < TOKEN_MATCH_CUTOFF - _BOUND_SLACK] = 0.0
        best = np.maximum.reduceat(ratios[:, aliases.token_ids], aliases.token_starts, axis=1)
        totals = np.add.reduceat(best[headers.token_ids], headers.token_starts, axis=0)
        bounds = totals / np.maximum(
            np.maximum(aliases.token_counts, headers.token_counts[:, None]), 1.0
        )
        bounds[headers.token_counts == 0] = aliases.token_counts == 0
        return bounds
