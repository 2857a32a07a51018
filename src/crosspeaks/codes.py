"""Error-correcting codes built by greedy scan, with minimum distance
certified exactly: by XOR closure, else by the pair scan.

gv_greedy keeps, in lexicographic order, each of the q^length words not yet
marked in a bitmap, and marks its Hamming ball of radius min_dist - 1.  The
result is a maximal code, so its size meets the classical floor
q^length / V_q(length, min_dist - 1), which is asserted on every build.
complement_extend doubles a binary code's length by appending each word's
complement, which doubles the absolute minimum distance and makes every word
constant-weight length/2.

Over an alphabet of q = 2^m symbols, greedy codes are lexicodes, which are
closed under symbol-wise XOR (Conway & Sloane, "Lexicographic codes", IEEE
Trans. IT 32, 1986).  gv_greedy then builds the code by doubling: each first
free word v adds code XOR v and marks the bitmap XOR-shifted by v, so it
takes log2 F + 1 passes over the bitmap; other alphabets scan it window by
window.  A closed code's pairwise differences are its nonzero words, so
certified_code reads its minimum distance off the least nonzero weight in
O(F length) and scans all F(F-1)/2 pairs only for other codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ParameterError, VerificationError
from .exactmath import binomial_ball_size

# budgets, read at call time: words a greedy scan enumerates, pairs a certificate compares
DEFAULT_ENUMERATION_BUDGET = 1 << 24
DEFAULT_PAIR_BUDGET = 50_000_000
_WINDOW = 1 << 12  # bitmap words searched at a time for the next free word
_FLIP_CHUNK = 1 << 20  # bitmap words one XOR-shift pass updates at a time


def gv_floor(q: int, length: int, min_dist: int) -> int:
    """ceil(q^length / V_q(length, min_dist - 1)): the size any maximal
    min_dist-separated code must reach."""
    ball = binomial_ball_size(q, length, min_dist - 1)
    return -((-(q ** length)) // ball)


def _word_matrix(q: int, length: int, words) -> np.ndarray:
    """words as a read-only (F, length) matrix of the narrowest unsigned
    dtype that holds the largest symbol; ParameterError unless they are F
    distinct words of integer symbols in [0, q)."""
    try:
        matrix = np.asarray(words)
    except ValueError as exc:  # ragged rows
        raise ParameterError(f"words are not all of length {length}") from exc
    if matrix.ndim != 2 or matrix.shape[1] != length or not matrix.size:
        raise ParameterError(f"words form a {matrix.shape} array, not (F >= 1, {length})")
    # numpy holds a non-integer, or an int past int64, as a float or object
    if matrix.dtype.kind not in "iu" or matrix.min() < 0 or matrix.max() >= q:
        raise ParameterError(f"words have symbols that are not integers in [0, {q})")
    matrix = matrix.astype(np.min_scalar_type(matrix.max()), order="C")
    # words sorted as opaque items: np.unique(axis=0) is 20x slower and imports numpy.ma
    rows = np.sort(matrix.view(f"V{length * matrix.itemsize}"), axis=0).view(matrix.dtype)
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise ParameterError("repeated word")
    matrix.flags.writeable = False
    return matrix


def min_distance_exhaustive(words) -> int:
    """Exact minimum pairwise Hamming distance over all word pairs; more than
    DEFAULT_PAIR_BUDGET pairs raise BudgetExceededError before the scan."""
    m = len(words)
    if m < 2:
        raise ParameterError("minimum distance needs at least two words")
    if m * (m - 1) // 2 > DEFAULT_PAIR_BUDGET:
        raise BudgetExceededError(f"{m} words means {m*(m-1)//2} pairs, "
                                  f"over the budget of {DEFAULT_PAIR_BUDGET}")
    arr = np.asarray(words)
    if arr.dtype.kind not in "iu":  # symbols past int64 would compare as floats
        raise ParameterError(f"symbols must be integers below 2^63, got {arr.dtype} words")
    best = arr.shape[1] + 1
    for i in range(m - 1):
        d = int(np.count_nonzero(arr[i + 1:] != arr[i], axis=1).min())
        if d < best:
            best = d
            if best == 0:
                break
    return best


def closure_distance(q: int, words: np.ndarray) -> int | None:
    """The minimum distance of an (F, length) matrix of F >= 2 distinct
    words that are exactly their span under symbol-wise XOR, read off the
    least nonzero weight; None when they are not.  They are when q = 2^m, F
    is a power of two and the GF(2) rank of the words packed as length*m-bit
    ints is log2 F: a span of rank r has 2^r words, so it holds all F and
    nothing else.  Packings wider than 64 bits are not tried."""
    (f, length), m = words.shape, q.bit_length() - 1
    if q != 1 << m or f < 2 or f & (f - 1) or length * m > 64:
        return None
    rows = np.zeros(f, dtype=np.uint64)
    for column in words.T:
        rows = rows << np.uint64(m) | column
    for _ in range(f.bit_length()):  # rank log2 F + 1 already disproves closure
        rows = rows[rows != 0]
        if not len(rows):  # reached only with rank log2 F: fewer cannot span F words
            weights = np.count_nonzero(words, axis=1)
            return int(weights[weights > 0].min())
        pivot = rows[0]
        bit = pivot & ~(pivot - np.uint64(1))  # its lowest set bit
        rows = np.where(rows & bit, rows ^ pivot, rows)
    return None


@dataclass(frozen=True, eq=False)
class Code:
    """A set of distinct words over the alphabet {0, ..., alphabet_size - 1},
    held as a read-only (size, length) matrix of the narrowest unsigned dtype
    that holds the largest symbol, with minimum distance certified exactly:
    by XOR closure, else by the pair scan."""

    alphabet_size: int
    length: int
    words: np.ndarray
    min_distance: int

    @property
    def size(self) -> int:
        return len(self.words)


def certified_code(q: int, length: int, words) -> Code:
    """The Code of these words, with its exact minimum distance: the least
    nonzero weight when the words are XOR-closed, else min_distance_exhaustive
    (which raises ParameterError for fewer than two words and
    BudgetExceededError past the pair budget)."""
    if q < 2:
        raise ParameterError("alphabet size must be >= 2")
    words = _word_matrix(q, length, words)
    dmin = closure_distance(q, words)
    if dmin is None:
        dmin = min_distance_exhaustive(words)
    return Code(alphabet_size=q, length=length, words=words, min_distance=dmin)


def _ball_shifts(q: int, length: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit-wise shifts (mod q) from a word to each word within Hamming
    distance radius of it, and the weight of each shift."""
    shifts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(length):  # append a digit: 0 keeps the weight, 1..q-1 adds one
        grow = shifts[np.count_nonzero(shifts, axis=1) < radius]
        grown = np.column_stack([np.repeat(grow, q - 1, axis=0),
                                 np.tile(np.arange(1, q), len(grow))])
        shifts = np.concatenate([np.pad(shifts, ((0, 0), (0, 1))), grown])
    return shifts, np.count_nonzero(shifts, axis=1)


def _or_xor_shifted(bitmap: np.ndarray, v: int) -> None:
    """bitmap[i] |= bitmap[i ^ v] for every index i of a 2^B-entry bitmap,
    in place.  With t the top bit of v, each block of 2^(t+1) entries that
    share the index bits above t pairs its low half with its high half, and
    XOR by v's lower bits flips the half's axes of those bits: np.flip views,
    no index array.  The halves share no entry, so numpy copies nothing, and
    _FLIP_CHUNK entries at a time keep the passes in cache."""
    t = v.bit_length() - 1
    blocks = bitmap.reshape(-1, 2, *(2,) * t)  # axis a of a half is index bit t - a
    axes = tuple(t - j for j in range(t) if v >> j & 1)
    step = max(1, _FLIP_CHUNK >> (t + 1))
    for start in range(0, len(blocks), step):
        low, high = blocks[start:start + step, 0], blocks[start:start + step, 1]
        low |= np.flip(high, axes)
        high |= np.flip(low, axes)  # also ORs high into itself: flip is an involution


def gv_greedy(q: int, length: int, min_dist: int) -> Code:
    """Deterministic greedy code: scan all q^length words in lexicographic
    order, keep each word whose distance to everything kept is >= min_dist.
    A bitmap of one bool per word marks each kept word's Hamming ball.

    For q = 2^m the greedy code is a lexicode, closed under XOR, and word
    indices XOR as their symbols do.  So the code is built by doubling: mark
    the ball around 0, take the first free word v, mark forbidden XOR v as
    well and add code XOR v to the code, until no word is free; log2 F + 1
    passes over the bitmap.  For other q the scan walks the bitmap window by
    window, marking each kept word's ball: m kept words take
    O(q^length + m V_q(length, min_dist - 1)) time.

    The returned Code has its minimum distance re-certified exactly: by XOR
    closure, else by the pair scan.
    The size floor q^length / V_q(length, min_dist - 1) is a hard assertion.
    The enumeration budget raises BudgetExceededError before the scan, and
    so does the pair budget when q is not a power of two and the floor's
    pairs exceed it.
    """
    if q < 2 or length < 1 or not 1 <= min_dist <= length:
        raise ParameterError(f"bad greedy-code parameters q={q} len={length} d={min_dist}")
    total = q ** length
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"q^length = {total} exceeds the enumeration budget "
            f"{DEFAULT_ENUMERATION_BUDGET}; "
            "supply a smaller instance or an explicit code")
    floor = gv_floor(q, length, min_dist)
    doubling = q & (q - 1) == 0  # q = 2^m: the code certifies by closure, not by pairs
    if not doubling and floor * (floor - 1) // 2 > DEFAULT_PAIR_BUDGET:
        # the code reaches the floor, so certifying it would exceed the budget
        raise BudgetExceededError(
            f"at least {floor} words means at least {floor * (floor - 1) // 2} pairs, "
            f"over the budget of {DEFAULT_PAIR_BUDGET}")

    radius = min_dist - 1
    half = length // 2  # the ball is marked as first-half ball x second-half ball blocks
    place = q ** np.arange(length - 1, -1, -1, dtype=np.int64)  # word i has the digits of i
    hi_shifts, hi_weight = _ball_shifts(q, half, radius)
    lo_shifts, lo_weight = _ball_shifts(q, length - half, radius)
    forbidden = np.zeros(total, dtype=bool)
    grid = forbidden.reshape(-1, q ** (length - half))

    def mark_ball(word: int) -> None:
        digits = word // place % q
        his = (digits[:half] + hi_shifts) % q @ place[:half] // grid.shape[1]
        los = (digits[half:] + lo_shifts) % q @ place[half:]
        for i in range(radius + 1):  # first half at distance i, second within radius - i
            grid[np.ix_(his[hi_weight == i], los[lo_weight <= radius - i])] = True

    if doubling:
        mark_ball(0)
        kept = np.zeros(1, dtype=np.int64)
        while not forbidden.all():
            v = int(forbidden.argmin())
            _or_xor_shifted(forbidden, v)
            kept = np.concatenate([kept, kept ^ v])
        kept.sort()
    else:
        kept = []
        for start in range(0, total, _WINDOW):
            window = forbidden[start:start + _WINDOW]  # a view: it sees new marks
            while not window.all():
                kept.append(start + int(window.argmin()))
                mark_ball(kept[-1])

    words = np.empty((len(kept), length), dtype=np.min_scalar_type(q - 1))
    for j in range(length - 1, -1, -1):  # last digit first
        kept, words[:, j] = np.divmod(kept, q)
    code = certified_code(q, length, words)
    if code.size > 1 and code.min_distance < min_dist:
        raise VerificationError("greedy code certification came in under the target distance")
    if code.size < floor:
        raise VerificationError(
            f"greedy code of size {code.size} fell below the guaranteed floor {floor}")
    return code


def complement_extend(code: Code) -> Code:
    """Map every word c of a binary code to (c, complement(c)).  Output
    words are constant weight length/2 (in the doubled length) and the
    minimum distance doubles, since flipped and unflipped positions each
    contribute once."""
    if code.alphabet_size != 2:
        raise ParameterError(
            f"complement extension needs a binary code, got q={code.alphabet_size}")
    out = certified_code(2, 2 * code.length, np.hstack([code.words, 1 - code.words]))
    if out.size >= 2 and out.min_distance != 2 * code.min_distance:
        raise VerificationError(
            f"complement extension produced distance {out.min_distance}, "
            f"expected {2 * code.min_distance}")
    return out


# ---------------------------------------------------------------------------
# serialization: header "q=<int> len=<int> dmin=<int>", one word per line,
# bit-strings for q=2, comma-separated symbol indices otherwise.

def format_code(code: Code) -> str:
    q = code.alphabet_size
    sep = "" if q == 2 else ","
    lines = [f"q={q} len={code.length} dmin={code.min_distance}"]
    lines += [sep.join(map(str, w)) for w in code.words.tolist()]
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> tuple[int, int, int]:
    try:
        parts = dict(p.split("=", 1) for p in line.split())
        return int(parts["q"]), int(parts["len"]), int(parts["dmin"])
    except (ValueError, KeyError) as exc:
        raise ParameterError(f"malformed code header {line!r}") from exc


def parse_code(text: str) -> Code:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty code text")
    q, length, dmin = _parse_header(lines[0])
    words = []
    for ln in lines[1:]:
        ln = ln.strip()
        if q == 2:
            if len(ln) != length or any(c not in "01" for c in ln):
                raise ParameterError(f"malformed binary word {ln!r}")
            words.append(tuple(int(c) for c in ln))
        else:
            try:
                words.append(tuple(int(s) for s in ln.split(",")))
            except ValueError as exc:
                raise ParameterError(f"malformed q-ary word {ln!r}") from exc
    code = certified_code(q, length, words)
    if code.size >= 2 and code.min_distance != dmin:
        raise VerificationError(
            f"stored dmin={dmin} but certification found {code.min_distance}")
    return code
