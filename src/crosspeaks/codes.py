"""Error-correcting codes built by greedy scan, with minimum distance
certified exactly: by XOR closure, else by the pair scan.

gv_greedy keeps, in lexicographic order, each of the q^length words whose
distance to every word kept so far is at least min_dist.  The result is a
maximal code, so its size meets the classical floor
q^length / V_q(length, min_dist - 1), which is asserted on every build.
complement_extend doubles a binary code's length by appending each word's
complement, which doubles the absolute minimum distance and makes every word
constant-weight length/2.

Over an alphabet of q = 2^m symbols, greedy codes are lexicodes, which are
closed under symbol-wise XOR (Conway & Sloane, "Lexicographic codes", IEEE
Trans. IT 32, 1986).  gv_greedy then builds the code from its basis in
reduced echelon form: each new row is the least pivot-free integer that is
not a ball word reduced by the basis, and costs one pass over the Hamming
ball of radius min_dist - 1, never over the q^length words.  Other alphabets
scan a bitmap of the q^length words window by window, marking each kept
word's ball.  A closed code's pairwise differences are its nonzero words, so
certified_code reads its minimum distance off the least nonzero weight in
O(F length), records the code as closed (Code.xor_closed, which the family's
code bound reads), and scans all F(F-1)/2 pairs only for other codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .bounds import gv_floor
from .errors import BudgetExceededError, ParameterError, VerificationError, require_int

# budgets, read at call time: words a greedy scan enumerates, pairs a certificate compares
DEFAULT_ENUMERATION_BUDGET = 1 << 24
DEFAULT_PAIR_BUDGET = 50_000_000
_WINDOW = 1 << 12  # bitmap words searched at a time for the next free word
_PAIR_BLOCK = 1 << 16  # word pairs the exhaustive distance scan compares at a time
# numbers as str() spells them (no plus, space, underscore or leading zero)
_INT = re.compile("0|-?[1-9][0-9]*")
_SYMBOL = "(?:0|[1-9][0-9]*)"


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
    DEFAULT_PAIR_BUDGET pairs raise BudgetExceededError before the scan.

    Rows i0..i1 are compared with rows i0+1.. as one block of about
    _PAIR_BLOCK pairs, one column at a time, into integer counts of the
    narrowest unsigned dtype that holds length + 1; pairs with j <= i are
    set to length + 1 before the block's minimum is taken.  A distance of 0
    ends the scan."""
    m = len(words)
    if m < 2:
        raise ParameterError("minimum distance needs at least two words")
    if m * (m - 1) // 2 > DEFAULT_PAIR_BUDGET:
        raise BudgetExceededError(f"{m} words means {m*(m-1)//2} pairs, "
                                  f"over the budget of {DEFAULT_PAIR_BUDGET}")
    try:
        arr = np.asarray(words)
    except ValueError as exc:  # ragged rows
        raise ParameterError("words are not all of one length") from exc
    if arr.ndim != 2:
        raise ParameterError(f"words form a {arr.shape} array, not (m, length)")
    if arr.dtype.kind not in "iu":  # symbols past int64 would compare as floats
        raise ParameterError(f"symbols must be integers below 2^63, got {arr.dtype} words")
    length = arr.shape[1]
    columns = np.ascontiguousarray(arr.T)
    best = length + 1
    i0 = 0
    while i0 < m - 1 and best:
        i1 = min(m - 1, i0 + max(1, _PAIR_BLOCK // (m - 1 - i0)))
        counts = np.zeros((i1 - i0, m - 1 - i0), dtype=np.min_scalar_type(length + 1))
        for column in columns:
            counts += column[i0:i1, None] != column[None, i0 + 1:]
        # entry (r, c) pairs row i0 + r with row i0 + 1 + c: j <= i where c < r
        counts[np.arange(m - 1 - i0) < np.arange(i1 - i0)[:, None]] = length + 1
        best = min(best, int(counts.min()))
        i0 = i1
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
    xor_closed: bool  # the words are their own span under symbol-wise XOR

    @property
    def size(self) -> int:
        return len(self.words)


def certified_code(q: int, length: int, words) -> Code:
    """The Code of these words, with its exact minimum distance: the least
    nonzero weight when the words are XOR-closed, else min_distance_exhaustive
    (which raises ParameterError for fewer than two words and
    BudgetExceededError past the pair budget)."""
    q, length = require_int(q, "alphabet size", 2), require_int(length, "length")
    words = _word_matrix(q, length, words)
    dmin = closure_distance(q, words)
    closed = dmin is not None
    if not closed:
        dmin = min_distance_exhaustive(words)
    return Code(alphabet_size=q, length=length, words=words, min_distance=dmin,
                xor_closed=closed)


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


def _window_scan(q: int, length: int, radius: int) -> np.ndarray:
    """The greedy code's words as sorted word indices (word i has the
    base-q digits of i), by a bitmap of one bool per word: scanned window by
    window for the next free word, each kept word's Hamming ball of radius
    radius marked, as first-half ball x second-half ball blocks.  m kept
    words take O(q^length + m V_q(length, radius)) time."""
    half = length // 2
    place = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    hi_shifts, hi_weight = _ball_shifts(q, half, radius)
    lo_shifts, lo_weight = _ball_shifts(q, length - half, radius)
    forbidden = np.zeros(q ** length, dtype=bool)
    grid = forbidden.reshape(-1, q ** (length - half))
    kept = []
    for start in range(0, len(forbidden), _WINDOW):
        window = forbidden[start:start + _WINDOW]  # a view: it sees new marks
        while not window.all():
            kept.append(start + int(window.argmin()))
            digits = kept[-1] // place % q
            his = (digits[:half] + hi_shifts) % q @ place[:half] // grid.shape[1]
            los = (digits[half:] + lo_shifts) % q @ place[half:]
            for i in range(radius + 1):  # first half at distance i, second within radius - i
                grid[np.ix_(his[hi_weight == i], los[lo_weight <= radius - i])] = True
    return np.array(kept, dtype=np.int64)


def _basis_span(q: int, length: int, radius: int) -> np.ndarray:
    """The greedy code's words as sorted word indices for q = 2^m, where the
    code is a lexicode, its words a GF(2) span, and word indices XOR as
    their symbols do.  A word is forbidden iff its coset of the span meets
    the radius ball around 0, and a coset's least member is its reduced
    form, the one with no pivot bit set.  So the next word is the least
    pivot-free integer that is not a reduced ball word.  Its top bit lies
    above every pivot and it has no pivot bit, so the kept words stay a
    basis in reduced echelon form, each pivot at its row's top bit.

    The ball is held reduced with the pivot bits squeezed out, so the
    pivot-free integers count up from 0 and the least one missing is at
    most |ball|: each new row costs one pass over the ball.  When none is
    missing the span is expanded row by row in pivot order, which is
    sorted order."""
    place = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    reduced = _ball_shifts(q, length, radius)[0] @ place
    free, basis = (q ** length).bit_length() - 1, []
    while True:
        seen = np.zeros(len(reduced) + 1, dtype=bool)
        seen[reduced[reduced < len(seen)]] = True
        gap = int(seen.argmin())  # squeezed, the least word not forbidden
        if gap == 1 << free:
            break
        top = gap.bit_length() - 1
        high = reduced >> top  # reduce by the new row where bit top is set, then drop the bit
        low = (reduced & ((1 << top) - 1)) ^ (high & 1) * (gap ^ 1 << top)
        reduced = high >> 1 << top | low
        free -= 1
        for row in basis:  # put a 0 back at every pivot bit, lowest first
            p = row.bit_length() - 1
            gap = gap >> p << p + 1 | gap & ((1 << p) - 1)
        basis.append(gap)
    kept = np.zeros(1, dtype=np.int64)
    for row in basis:
        kept = np.concatenate([kept, kept ^ row])
    return kept


def gv_greedy(q: int, length: int, min_dist: int) -> Code:
    """Deterministic greedy code: scan all q^length words in lexicographic
    order, keep each word whose distance to everything kept is >= min_dist.

    For q = 2^m the greedy code is a lexicode, closed under XOR, and
    _basis_span builds it from its basis, one pass over the Hamming ball of
    radius min_dist - 1 per basis row; other q take _window_scan's bitmap
    of the q^length words.

    The returned Code has its minimum distance re-certified exactly: by XOR
    closure, else by the pair scan.
    The size floor q^length / V_q(length, min_dist - 1) is a hard assertion.
    The enumeration budget raises BudgetExceededError before the scan, and
    so does the pair budget when q is not a power of two and the floor's
    pairs exceed it.
    """
    q, length = require_int(q, "alphabet size", 2), require_int(length, "length", 1)
    min_dist = require_int(min_dist, "minimum distance", 1)
    if min_dist > length:
        raise ParameterError(f"minimum distance {min_dist} over the length {length}")
    total = q ** length
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"q^length = {total} exceeds the enumeration budget "
            f"{DEFAULT_ENUMERATION_BUDGET}; "
            "supply a smaller instance or an explicit code")
    floor = gv_floor(q, length, min_dist)
    closed = q & (q - 1) == 0  # q = 2^m: the code certifies by closure, not by pairs
    if not closed and floor * (floor - 1) // 2 > DEFAULT_PAIR_BUDGET:
        # the code reaches the floor, so certifying it would exceed the budget
        raise BudgetExceededError(
            f"at least {floor} words means at least {floor * (floor - 1) // 2} pairs, "
            f"over the budget of {DEFAULT_PAIR_BUDGET}")

    kept = (_basis_span if closed else _window_scan)(q, length, min_dist - 1)
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


def header_fields(line: str, keys: tuple[str, ...], what: str) -> list[int]:
    """The integer values of a 'key=value ...' header line, in the order of
    keys; ParameterError unless it names each key exactly once and nothing
    else."""
    fields = {}
    for part in line.split():
        key, _, value = part.partition("=")
        if key not in keys or key in fields:
            problem = "repeats" if key in fields else "has an unknown field"
            raise ParameterError(f"{what} header {line!r} {problem} {part!r}")
        if not _INT.fullmatch(value):
            raise ParameterError(f"{what} header {line!r} has a non-integer field {part!r}")
        fields[key] = int(value)
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ParameterError(f"{what} header {line!r} lacks {', '.join(missing)}")
    return [fields[key] for key in keys]


def parse_words(lines, what: str) -> np.ndarray:
    """Words written one per line as comma-separated decimal symbols, as
    format_code writes them, as an int64 matrix of one row per line; a line
    that is no such word or differs from the first in length, and a symbol
    past int64, are ParameterErrors naming what."""
    line = f"{_SYMBOL}(?:,{_SYMBOL}){{{lines[0].count(',') if lines else 0}}}"
    words = re.compile(f"{line}(?:\n{line})*")  # every line as wide as the first
    block = "\n".join(lines)
    if not words.fullmatch(block):
        bad = next((ln for ln in lines if not words.fullmatch(ln)), "")
        raise ParameterError(f"malformed {what} {bad!r}")
    try:
        symbols = np.array(block.replace("\n", ",").split(","), dtype=np.int64)
    except OverflowError:
        raise ParameterError(f"{what} has a symbol past 2^63") from None
    return symbols.reshape(len(lines), -1)


def parse_code(text: str) -> Code:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty code text")
    q, length, dmin = header_fields(lines[0], ("q", "len", "dmin"), "code")
    if q != 2:
        words = parse_words(lines[1:], "q-ary word")
    else:
        for ln in lines[1:]:
            if len(ln) != length or any(c not in "01" for c in ln):
                raise ParameterError(f"malformed binary word {ln!r}")
        words = [tuple(map(int, ln)) for ln in lines[1:]]
    code = certified_code(q, length, words)
    if code.size >= 2 and code.min_distance != dmin:
        raise VerificationError(
            f"stored dmin={dmin} but certification found {code.min_distance}")
    return code
