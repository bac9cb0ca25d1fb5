"""String similarity primitives for syntactic header matching.

The first step of SigmaTyper's pipeline compares column headers against the
labels and synonyms in the type ontology "using fuzzy matching".  This module
implements the standard similarity measures from scratch (no external fuzzy
matching dependency): Levenshtein edit distance/ratio, Jaro and Jaro–Winkler
similarity, and token-based set ratios that are robust to word reordering.

All similarity functions return floats in ``[0, 1]`` where ``1`` means an
exact match, and are case-insensitive after :func:`normalize_header`
tokenisation.
"""

from __future__ import annotations

import re

__all__ = [
    "normalize_header",
    "tokenize_header",
    "levenshtein_distance",
    "levenshtein_ratio",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "token_set_ratio",
    "combined_similarity",
]

_CAMEL_CASE_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")

#: Header tokens that carry no semantic information on their own.
_STOP_TOKENS = frozenset({"the", "of", "a", "an", "de", "der", "no"})

# The header matcher's candidate screen bounds the measures below using these
# same constants, so they live here once: changing one here moves its bound.
#: A non-shared token counts towards ``token_set_ratio`` only at or above this
#: Levenshtein ratio against its best partner.
TOKEN_MATCH_CUTOFF = 0.75
#: Jaro–Winkler's default boost per shared prefix character.
WINKLER_PREFIX_SCALE = 0.1
#: Jaro–Winkler counts a shared prefix over at most this many characters.
WINKLER_PREFIX_LENGTH = 4


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
    for token in remaining_a:
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
