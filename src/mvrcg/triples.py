"""Conditional-independence triples and finite independence models.

A triple <A, B | C> has nonempty, pairwise disjoint blocks A and B and a
possibly empty conditioning set C.  The canonical form puts the
lexicographically smaller block first, which makes symmetry a property
of the representation rather than a rewrite rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ._bitset import mask_of, set_of
from ._kernels.pyfallback import decode_code, encode_masks
from .errors import DisjointnessViolation, ModelFormatError


@dataclass(frozen=True)
class IndependenceTriple:
    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int] = frozenset()

    def __post_init__(self):
        a = frozenset(self.a)
        b = frozenset(self.b)
        c = frozenset(self.c)
        if not a or not b:
            raise DisjointnessViolation("both blocks must be nonempty")
        if min(a | b | c) < 0:
            raise DisjointnessViolation("vertex ids must be nonnegative")
        if a & b or a & c or b & c:
            raise DisjointnessViolation("blocks and conditioning set must be disjoint")
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
        def fmt(s):
            if labels is None:
                return ",".join(str(v) for v in sorted(s))
            return ",".join(labels[v] for v in sorted(s))

        left = f"{fmt(self.a)} _||_ {fmt(self.b)}"
        return f"{left} | {fmt(self.c)}" if self.c else left

    def sort_key(self):
        return (sorted(self.a), sorted(self.b), sorted(self.c))

    def __str__(self):
        return self.format()


def triple_from_masks(a: int, b: int, c: int) -> IndependenceTriple:
    return IndependenceTriple(set_of(a), set_of(b), set_of(c))


def encode_triple(t: IndependenceTriple, n: int) -> int:
    a, b, c = t.masks()
    if (a | b | c) >> n:
        raise DisjointnessViolation(f"triple mentions vertices outside 0..{n - 1}")
    return encode_masks(n, a, b, c)


def decode_triple(code: int, n: int) -> IndependenceTriple:
    return triple_from_masks(*decode_code(n, code))


@dataclass(frozen=True)
class IndependenceModel:
    """A finite set of canonical triples over ground set ``0..n-1``."""

    n: int
    triples: frozenset[IndependenceTriple] = field(default_factory=frozenset)

    def __post_init__(self):
        for t in self.triples:
            vs = t.a | t.b | t.c
            if max(vs) >= self.n:
                raise ModelFormatError(f"triple <{t}> outside the ground set 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, triples: Iterable[IndependenceTriple]) -> "IndependenceModel":
        return cls(n, frozenset(triples))

    @classmethod
    def from_codes(cls, n: int, codes: Iterable[int]) -> "IndependenceModel":
        return cls(n, frozenset(decode_triple(code, n) for code in codes))

    def to_codes(self) -> list[int]:
        return sorted(encode_triple(t, self.n) for t in self.triples)

    def __contains__(self, t: IndependenceTriple) -> bool:
        return t in self.triples

    def __iter__(self) -> Iterator[IndependenceTriple]:
        return iter(sorted(self.triples, key=IndependenceTriple.sort_key))

    def __len__(self) -> int:
        return len(self.triples)

    def __le__(self, other: "IndependenceModel") -> bool:
        return self.triples <= other.triples

    def union(self, other: "IndependenceModel") -> "IndependenceModel":
        if self.n != other.n:
            raise DisjointnessViolation("models over different ground sets")
        return IndependenceModel(self.n, self.triples | other.triples)

    # --- JSON interchange -----------------------------------------------

    def to_json_obj(self, labels=None) -> dict:
        obj = {
            "ground_set": self.n,
            "triples": [
                {"a": sorted(t.a), "b": sorted(t.b), "c": sorted(t.c)} for t in self
            ],
        }
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
            if not all(isinstance(ids, list) and all(type(v) is int and v >= 0 for v in ids)
                       for ids in triple):
                raise ModelFormatError(f"triple {i}: blocks must be lists of "
                                       "non-negative integer vertex ids")
        return cls.of(n, [IndependenceTriple.of(*triple) for triple in blocks])
