"""Ternary values and words.

A TCAM bit stores one of three states: ``0``, ``1`` or ``X`` (don't care).
A *stored* ``X`` matches any search bit; a *search* ``X`` (masked search
column) matches any stored bit.  This module implements that algebra plus
the integer encoding used by the vectorized array core:

====== =========
value  encoding
====== =========
``0``  0
``1``  1
``X``  2
====== =========
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ..errors import TCAMError


#: numpy dtype kinds that can hold trit codes: bool, signed, unsigned, float.
_CODE_KINDS = "biuf"


def _check_codes(codes: np.ndarray, api: str) -> None:
    """Raise :class:`TCAMError` naming ``api`` unless every entry of
    ``codes`` is one of the integers 0, 1, 2.

    The test runs on the caller's dtype, before any int8 cast could wrap
    257 to 1 or truncate 0.5 to 0.  An int8 block is accepted by one
    reduction: viewed as uint8, every negative code is >= 128.
    """
    if codes.dtype == np.int8 and (codes.size == 0 or codes.view(np.uint8).max() <= 2):
        return
    ok = (codes >= 0) & (codes <= 2)
    if codes.dtype.kind == "f":
        ok &= codes == np.trunc(codes)
    if not ok.all():
        raise TCAMError(
            f"{api}: invalid trit value {codes[~ok][0].item()!r}; "
            "trit codes are the integers 0, 1 and 2 (X)"
        )


class Trit(enum.IntEnum):
    """One ternary symbol."""

    ZERO = 0
    ONE = 1
    X = 2

    @classmethod
    def from_char(cls, char: str) -> "Trit":
        """Parse ``'0'``, ``'1'``, ``'x'`` or ``'X'``.

        >>> Trit.from_char('x') is Trit.X
        True
        """
        table = {"0": cls.ZERO, "1": cls.ONE, "x": cls.X, "X": cls.X}
        try:
            return table[char]
        except KeyError:
            raise TCAMError(f"invalid trit character {char!r}") from None

    def to_char(self) -> str:
        """Render as ``'0'``, ``'1'`` or ``'X'``."""
        return {Trit.ZERO: "0", Trit.ONE: "1", Trit.X: "X"}[self]

    def matches(self, other: "Trit") -> bool:
        """Ternary match: X matches everything, otherwise exact equality."""
        if self is Trit.X or other is Trit.X:
            return True
        return self is other


class TernaryWord(Sequence[Trit]):
    """An immutable fixed-width sequence of trits.

    Construct from any iterable of :class:`Trit` (or 0/1/2 integers), or via
    :func:`word_from_string`.

    >>> w = word_from_string("10X")
    >>> w.matches(word_from_string("101"))
    True
    >>> str(w)
    '10X'
    """

    __slots__ = ("_data",)

    def __init__(self, trits: Iterable[Trit | int]) -> None:
        codes = trits if isinstance(trits, np.ndarray) else np.array(list(trits))
        if codes.ndim != 1 or codes.dtype.kind not in _CODE_KINDS:
            raise TCAMError(
                f"TernaryWord: expected a 1-D sequence of trit codes, got "
                f"shape {codes.shape} dtype {codes.dtype}"
            )
        if codes.size == 0:
            raise TCAMError("a ternary word must have at least one trit")
        _check_codes(codes, "TernaryWord")
        self._data = codes.astype(np.int8)  # always a private copy
        self._data.setflags(write=False)

    # -- Sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self._data.size)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return TernaryWord(self._data[index])
        return Trit(int(self._data[index]))

    def __iter__(self) -> Iterator[Trit]:
        return (Trit(int(v)) for v in self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TernaryWord):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._data == other._data))

    def __hash__(self) -> int:
        return hash(self._data.tobytes())

    def __repr__(self) -> str:
        return f"TernaryWord('{self}')"

    def __str__(self) -> str:
        return "".join(Trit(int(v)).to_char() for v in self._data)

    # -- TCAM algebra ------------------------------------------------------

    def as_array(self) -> np.ndarray:
        """Return the int8 encoding (read-only view)."""
        return self._data

    def matches(self, key: "TernaryWord") -> bool:
        """True when every column matches under ternary semantics."""
        return self.mismatch_count(key) == 0

    def mismatch_count(self, key: "TernaryWord") -> int:
        """Number of mismatching (conducting) columns against ``key``."""
        if len(key) != len(self):
            raise TCAMError(
                f"width mismatch: stored {len(self)} vs key {len(key)}"
            )
        return int(mismatch_counts(self._data[np.newaxis, :], key.as_array())[0])


def mismatch_counts(stored: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Vectorized per-row mismatch counts.

    Args:
        stored: ``(rows, cols)`` int8 matrix of trit encodings.
        key: ``(cols,)`` int8 vector of trit encodings.

    Returns:
        ``(rows,)`` int array: number of columns in each row where neither
        side is X and the values differ -- i.e. the number of conducting
        pull-down cells on that row's match line.
    """
    stored = np.asarray(stored)
    key = np.asarray(key)
    if stored.ndim != 2 or key.ndim != 1 or stored.shape[1] != key.shape[0]:
        raise TCAMError(
            f"shape mismatch: stored {stored.shape} vs key {key.shape}"
        )
    x_code = int(Trit.X)
    relevant = (stored != x_code) & (key != x_code)[np.newaxis, :]
    differs = stored != key[np.newaxis, :]
    return np.count_nonzero(relevant & differs, axis=1)


def _pack_words(words: list, cols: int | None, api: str) -> np.ndarray:
    """Stack ``TernaryWord`` s into one ``(n, cols)`` int8 block.

    ``cols=None`` takes the first word's width.  Raises
    :class:`TCAMError` naming ``api`` on an element that is not a word
    or on a width mismatch.
    """
    for i, word in enumerate(words):
        if not isinstance(word, TernaryWord):
            raise TCAMError(f"{api}: element {i} is {word!r}, not a TernaryWord")
    arrays = [w.as_array() for w in words]
    if cols is None:
        cols = len(arrays[0])
    for a in arrays:
        if len(a) != cols:
            raise TCAMError(f"{api}: word width {len(a)} does not match {cols} cols")
    # concatenate + reshape beats np.stack ~3x on large batches of small
    # per-key vectors (one bulk copy instead of per-array axis insertion).
    return np.concatenate(arrays).reshape(len(arrays), cols)


def pack_keys(keys: Iterable[TernaryWord]) -> np.ndarray:
    """Stack search keys into one ``(n_keys, cols)`` int8 matrix.

    All keys must share a width; the batched search engine compares the
    whole stack against the stored matrix in one broadcasted pass.
    """
    words = list(keys)
    if not words:
        raise TCAMError("a key batch must contain at least one key")
    return _pack_words(words, None, "pack_keys")


def trit_block(data, cols: int, api: str) -> np.ndarray:
    """The validated ``(n, cols)`` int8 block of trit codes in ``data``.

    ``data`` is a 2-D integer (or integral float) array-like of trit
    codes, or an iterable of :class:`TernaryWord` -- packed once by
    :func:`pack_keys`'s concatenate.  Codes are checked in one
    vectorised pass on the caller's dtype, before the int8 cast; words
    were checked when they were built.  An empty iterable gives a
    ``(0, cols)`` block.

    Raises:
        TCAMError: naming ``api`` when ``data`` is not 2-D, is not
            ``cols`` wide, holds a non-integral value or a code outside
            {0, 1, 2}, or mixes words with other elements.
    """
    if not isinstance(data, np.ndarray):
        data = list(data)
        if not data:
            return np.empty((0, cols), dtype=np.int8)
        if any(isinstance(w, TernaryWord) for w in data):
            return _pack_words(data, cols, api)
        try:
            data = np.asarray(data)
        except (TypeError, ValueError) as exc:
            raise TCAMError(f"{api}: not a block of trit codes ({exc})") from None
    if data.dtype.kind not in _CODE_KINDS:
        raise TCAMError(f"{api}: trit codes must be integers, got dtype {data.dtype}")
    if data.ndim != 2:
        raise TCAMError(f"{api}: a trit block must be 2-D (n, {cols}), got shape {data.shape}")
    if data.shape[1] != cols:
        raise TCAMError(f"{api}: word width {data.shape[1]} does not match {cols} cols")
    _check_codes(data, api)
    return np.ascontiguousarray(data, dtype=np.int8)


def mismatch_counts_batch(stored: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Broadcasted mismatch counts for a whole key batch.

    Args:
        stored: ``(rows, cols)`` int8 matrix of trit encodings.
        keys: ``(n_keys, cols)`` int8 matrix of search keys.

    Returns:
        ``(n_keys, rows)`` int array of per-row conducting-cell counts,
        one row of the result per key (``result[k]`` equals
        :func:`mismatch_counts` of ``keys[k]``).
    """
    stored = np.asarray(stored)
    keys = np.asarray(keys)
    if stored.ndim != 2 or keys.ndim != 2 or stored.shape[1] != keys.shape[1]:
        raise TCAMError(
            f"shape mismatch: stored {stored.shape} vs keys {keys.shape}"
        )
    x_code = int(Trit.X)
    # (n_keys, rows, cols) broadcast: neither side X and the values differ.
    relevant = (stored[np.newaxis, :, :] != x_code) & (keys[:, np.newaxis, :] != x_code)
    differs = stored[np.newaxis, :, :] != keys[:, np.newaxis, :]
    return np.count_nonzero(relevant & differs, axis=2)


# Per-column (SL, SLB) drive packed as ``sl*2 + slb``, indexed by trit code:
# searching 0 raises SL (code 2), searching 1 raises SLB (code 1), X neither.
_DRIVE_CODE_BY_TRIT = np.array([2, 1, 0], dtype=np.int8)


def drive_matrix(keys: np.ndarray) -> np.ndarray:
    """Packed (SL, SLB) drive codes for a stacked key batch.

    ``drive_matrix(pack_keys(keys))[k]`` equals ``drive_vector(keys[k])``
    elementwise; the batched search engine XORs consecutive rows to count
    search-line toggles for the whole batch at once.
    """
    keys = np.asarray(keys)
    return _DRIVE_CODE_BY_TRIT[keys]


def word_from_string(text: str) -> TernaryWord:
    """Parse a word like ``"10XX01"``.

    >>> str(word_from_string("1x0"))
    '1X0'
    """
    if not text:
        raise TCAMError("empty word string")
    return TernaryWord(Trit.from_char(c) for c in text)


def word_from_int(value: int, width: int) -> TernaryWord:
    """Binary word (no X) from an unsigned integer, MSB first.

    >>> str(word_from_int(5, 4))
    '0101'
    """
    if width < 1:
        raise TCAMError(f"width must be >= 1, got {width}")
    if value < 0 or value >= (1 << width):
        raise TCAMError(f"value {value} does not fit in {width} bits")
    if width <= 62:
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        return TernaryWord(((value >> shifts) & 1).astype(np.int8))
    return TernaryWord((value >> (width - 1 - i)) & 1 for i in range(width))


def prefix_word(value: int, prefix_len: int, width: int) -> TernaryWord:
    """Prefix pattern: ``prefix_len`` specified MSBs, the rest X.

    This is the TCAM image of an IP route ``value/prefix_len``.

    >>> str(prefix_word(0b1010, 2, 4))
    '10XX'
    """
    if not 0 <= prefix_len <= width:
        raise TCAMError(f"prefix length {prefix_len} outside [0, {width}]")
    data = word_from_int(value, width).as_array().copy()
    data[prefix_len:] = int(Trit.X)
    return TernaryWord(data)


def random_word(
    width: int,
    rng: np.random.Generator,
    x_fraction: float = 0.0,
) -> TernaryWord:
    """Draw a random ternary word.

    Args:
        width: Number of columns.
        rng: Random generator.
        x_fraction: Probability that each column is X (don't care).
    """
    if width < 1:
        raise TCAMError(f"width must be >= 1, got {width}")
    if not 0.0 <= x_fraction <= 1.0:
        raise TCAMError(f"x_fraction must be in [0, 1], got {x_fraction}")
    bits = rng.integers(0, 2, size=width)
    xs = rng.random(width) < x_fraction
    return TernaryWord(np.where(xs, int(Trit.X), bits).astype(np.int8))


def sl_drive(search_trit: Trit) -> tuple[int, int]:
    """Search-line drive pair (SL, SLB) for a search symbol.

    Convention (NOR cell): searching ``0`` raises SL (the "detect stored-1"
    line), searching ``1`` raises SLB, searching ``X`` raises neither so the
    column cannot discharge any match line.

    >>> sl_drive(Trit.ZERO)
    (1, 0)
    >>> sl_drive(Trit.X)
    (0, 0)
    """
    if search_trit is Trit.ZERO:
        return (1, 0)
    if search_trit is Trit.ONE:
        return (0, 1)
    return (0, 0)


def drive_vector(key: TernaryWord) -> tuple[int, ...]:
    """Pack each column's (SL, SLB) drive into two bits for toggle counting."""
    return tuple(sl * 2 + slb for sl, slb in (sl_drive(t) for t in key))


def nand_sl_drive(search_trit: Trit) -> tuple[int, int]:
    """Search-line drive pair for the NAND (series) cell polarity.

    In a NAND string every cell must *conduct* on a match, so a masked
    search column raises both lines (any healthy cell passes), and a
    specified symbol raises the line gating its match device.

    >>> nand_sl_drive(Trit.X)
    (1, 1)
    >>> nand_sl_drive(Trit.ZERO)
    (1, 0)
    """
    if search_trit is Trit.ZERO:
        return (1, 0)
    if search_trit is Trit.ONE:
        return (0, 1)
    return (1, 1)


def nand_drive_vector(key: TernaryWord | np.ndarray) -> tuple[int, ...]:
    """Packed (SL, SLB) drive for a NAND search key (a word or a code row)."""
    codes = key.as_array() if isinstance(key, TernaryWord) else np.asarray(key)
    return tuple(np.array([2, 1, 3])[codes].tolist())  # nand_sl_drive per code
