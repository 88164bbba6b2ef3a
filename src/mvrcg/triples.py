"""Conditional-independence triples and finite independence models.

A triple <A, B | C> has nonempty, pairwise disjoint blocks A and B and a
possibly empty conditioning set C.  The canonical form puts the
lexicographically smaller block first, which makes symmetry a property
of the representation rather than a rewrite rule.

A model stores its triples as the kernel's codes: <a, b | c> over the
ground set ``0..n-1`` is ``a | b << n | c << 2n`` for vertex masks a, b
and c, with the lowest block vertex in a.  The ``IndependenceTriple``
objects are decoded only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from ._bitset import format_vertices, mask_of, set_of
from ._kernels.pyfallback import decode_code, encode_masks
from .errors import DisjointnessViolation, ModelFormatError


def _check_blocks(a, b, c) -> None:
    """Blocks as vertex sets or masks: both nonempty, all three disjoint."""
    if not a or not b:
        raise DisjointnessViolation("both blocks must be nonempty")
    if a & b or a & c or b & c:
        raise DisjointnessViolation("blocks and conditioning set must be disjoint")


@dataclass(frozen=True)
class IndependenceTriple:
    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int] = frozenset()

    def __post_init__(self):
        a, b, c = frozenset(self.a), frozenset(self.b), frozenset(self.c)
        _check_blocks(a, b, c)
        if not all(type(v) is int and v >= 0 for v in a | b | c):  # bool is a subclass of int
            raise DisjointnessViolation("vertex ids must be nonnegative ints")
        if sorted(b) < sorted(a):
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def of(cls, a: Iterable[int], b: Iterable[int], c: Iterable[int] = ()) -> "IndependenceTriple":
        return cls(frozenset(a), frozenset(b), frozenset(c))

    def masks(self) -> tuple[int, int, int]:
        return mask_of(self.a), mask_of(self.b), mask_of(self.c)

    def format(self, labels=None) -> str:
        left = f"{format_vertices(self.a, labels)} _||_ {format_vertices(self.b, labels)}"
        return f"{left} | {format_vertices(self.c, labels)}" if self.c else left

    def sort_key(self):
        return (sorted(self.a), sorted(self.b), sorted(self.c))

    def __str__(self):
        return self.format()


def triple_from_masks(a: int, b: int, c: int) -> IndependenceTriple:
    return IndependenceTriple(set_of(a), set_of(b), set_of(c))


def _encode_checked(n: int, a: int, b: int, c: int) -> int:
    """Canonical code of the masks <a, b | c>, with ``IndependenceTriple``'s
    checks and the ground set ``0..n-1``."""
    _check_blocks(a, b, c)
    if (a | b | c) >> n:
        raise DisjointnessViolation(f"triple mentions vertices outside 0..{n - 1}")
    return encode_masks(n, a, b, c)


def encode_triple(t: IndependenceTriple, n: int) -> int:
    return _encode_checked(n, *t.masks())


def decode_triple(code: int, n: int) -> IndependenceTriple:
    return triple_from_masks(*decode_code(n, code))


def _ground_set(m1: "IndependenceModel", m2: "IndependenceModel") -> int:
    """The ground-set size two models share; models over different ground
    sets are not comparable, so this raises ``ModelFormatError``."""
    if m1.n != m2.n:
        raise ModelFormatError(f"models over different ground sets: {m1.n} and {m2.n} vertices")
    return m1.n


def first_difference(n: int, codes_a, codes_b) -> tuple[IndependenceTriple, bool]:
    """The least triple, by ``IndependenceTriple.sort_key``, whose code is
    in one of two code collections but not the other, and whether it is in
    the first; the two must differ."""
    sa = set(codes_a)
    triple = min((decode_triple(code, n) for code in sa.symmetric_difference(codes_b)),
                 key=IndependenceTriple.sort_key)
    return triple, encode_triple(triple, n) in sa


@dataclass(frozen=True)
class IndependenceModel:
    """A finite set of canonical triples over ground set ``0..n-1``, stored
    as their codes ``a | b << n | c << 2n``; ``triples`` is a view decoded
    on first read."""

    n: int
    codes: frozenset[int] = frozenset()

    def __post_init__(self):
        n = self.n
        if type(n) is not int or not isinstance(self.codes, frozenset):
            raise ModelFormatError("a model needs an int ground set size and a frozenset of codes")
        if n < 0:
            raise ModelFormatError(f"negative ground set size {n}")
        for code in self.codes:
            if type(code) is not int:
                raise ModelFormatError(f"code {code!r} is not an int")
            if code < 0 or code >> 3 * n:
                raise ModelFormatError(f"code {code} outside the ground set 0..{n - 1}")
            a, b, c = decode_code(n, code)
            # both blocks nonempty, all three disjoint, and the first block
            # holds the lowest block vertex
            if not (a and b) or a & b or a & c or b & c or not a & ((b & -b) - 1):
                raise ModelFormatError(f"code {code} is not a canonical triple")

    @classmethod
    def of(cls, n: int, triples: Iterable[IndependenceTriple]) -> "IndependenceModel":
        return cls(n, frozenset(encode_triple(t, n) for t in triples))

    @classmethod
    def from_masks(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "IndependenceModel":
        """Model of ``(a, b, c)`` mask triples, checked as triples are."""
        return cls(n, frozenset(_encode_checked(n, a, b, c) for a, b, c in triples))

    @classmethod
    def from_codes(cls, n: int, codes: Iterable[int]) -> "IndependenceModel":
        return cls(n, frozenset(codes))

    def to_codes(self) -> list[int]:
        return sorted(self.codes)

    @cached_property
    def triples(self) -> frozenset[IndependenceTriple]:
        return frozenset(decode_triple(code, self.n) for code in self.codes)

    def __contains__(self, t: IndependenceTriple) -> bool:
        return t in self.triples

    def __iter__(self) -> Iterator[IndependenceTriple]:
        return iter(sorted(self.triples, key=IndependenceTriple.sort_key))

    def __len__(self) -> int:
        return len(self.codes)

    def __le__(self, other: "IndependenceModel") -> bool:
        _ground_set(self, other)
        return self.codes <= other.codes

    def union(self, other: "IndependenceModel") -> "IndependenceModel":
        return IndependenceModel(_ground_set(self, other), self.codes | other.codes)

    # --- JSON interchange -----------------------------------------------

    def to_json_obj(self, labels=None) -> dict:
        triples = [{"a": sorted(t.a), "b": sorted(t.b), "c": sorted(t.c)} for t in self]
        obj = {"ground_set": self.n, "triples": triples}
        if labels is not None:
            obj["labels"] = list(labels)
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "IndependenceModel":
        """Inverse of ``to_json_obj``; ``c`` may be omitted from a triple.
        Malformed input raises ``ModelFormatError``."""
        try:
            n = obj["ground_set"]
            blocks = [(item["a"], item["b"], item.get("c", [])) for item in obj["triples"]]
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"malformed model JSON ({type(exc).__name__}: {exc})") from None
        if type(n) is not int or n < 0:  # bool is a subclass of int
            raise ModelFormatError("'ground_set' must be a non-negative integer")
        for i, triple in enumerate(blocks):
            if not all(isinstance(ids, list) and all(type(v) is int and 0 <= v < n for v in ids)
                       for ids in triple):
                raise ModelFormatError(f"triple {i}: blocks must be lists of vertex ids "
                                       f"in the ground set 0..{n - 1}")
        try:
            return cls.from_masks(n, [tuple(map(mask_of, triple)) for triple in blocks])
        except DisjointnessViolation as exc:
            raise ModelFormatError(f"malformed model JSON: {exc}") from None
