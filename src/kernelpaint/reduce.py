"""Reducible-configuration extraction and its certificates.

Given a graph g, a budget table f with f(v) <= d(v) + 1, and an independent
set A incident to at least Sum_v (d(v) + 1 - f(v)) edges, some nonempty
induced subgraph H is online f_H-choosable for f_H(v) = f(v) + d_H(v) - d_G(v).
``extract_reducible`` turns that existence statement into an algorithm: try to
build the kernel-perfect composite digraph on the current H; when the
orientation step fails it hands back a violating vertex set X, and peeling X
preserves the counting hypothesis while strictly shrinking H, so the loop
terminates with a concrete certificate (H, digraph, f_H).

The certificate is self-contained evidence: the digraph is kernel-perfect and
every out-degree is below f_H, which is exactly what the kernel painting
strategy needs to win the online game on H.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .bits import bits, lex_key, mask_of
from .errors import FormatError, HypothesisNotMetError, SizeLimitError
from .graphs import Graph, cut_size
from .orient import (
    DegreeTable,
    Digraph,
    _build_kp_masked,
    _check_kp_inputs,
    _integer,
    _table,
)
from .structure import mic
from .verify import ONLINE_VERTEX_CAP, PaintabilitySolver, _list_colourable

__all__ = [
    "Certificate",
    "CutLemmaRecord",
    "MicStrengthRecord",
    "check_mic_strength",
    "cut_lemma_check",
    "extract_reducible",
    "is_oc_reducible",
]

CUT_LEMMA_CAP = 6


@dataclass(frozen=True)
class Certificate:
    """Witness that the induced subgraph on h_vertices is online f_h-choosable."""

    h_vertices: tuple[int, ...]
    digraph: Digraph
    f_h: dict[int, int]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.h_vertices),
            "arcs": [list(a) for a in self.digraph.arcs],
            "f_h": {str(v): self.f_h[v] for v in self.h_vertices},
        }

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        """The certificate that ``to_json`` serialized; ``FormatError`` on any
        other shape."""
        if not isinstance(obj, dict):
            raise FormatError(f"a certificate is a JSON object, not {type(obj).__name__}")
        try:
            verts = tuple(map(_integer, obj["vertices"]))
            arcs = [(_integer(t), _integer(h)) for t, h in obj["arcs"]]
            f_h = {int(k): _integer(v) for k, v in obj["f_h"].items()}
            return Certificate(verts, Digraph(verts, arcs), f_h)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed certificate: {exc!r}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Certificate":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"unparseable certificate: {exc}") from exc
        return Certificate.from_json(obj)


def extract_reducible(
    g: Graph, f: DegreeTable, a: Optional[Iterable[int]] = None
) -> Certificate:
    """Extract a certified online-choosable induced subgraph.

    A defaults to the lexicographically smallest optimal independent cover.
    Raises HypothesisNotMetError when ||A, V|| < Sum_v (d(v) + 1 - f(v)); that
    is the caller's "independent cover too small" signal.

    The peeling loop maintains ||H_A|| >= Sum_{v in H} (d_H(v) + 1 - f_H(v)),
    where H_A keeps only the H-edges meeting A.  A violating set X cannot be
    all of V(H) under that invariant, so each round removes a proper nonempty
    subset and the loop ends with a nonempty H whose composite digraph exists.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    ftab = _table(f, range(g.n))
    a_set = frozenset(a) if a is not None else mic(g).witness
    _check_kp_inputs(g, a_set, ftab, g.full_mask())
    need = sum(g.degrees[v] + 1 - ftab[v] for v in range(g.n))
    have = cut_size(g, a_set, range(g.n))
    if have < need:
        raise HypothesisNotMetError(
            f"independent cover supplies {have} edge incidences, hypothesis needs {need}"
        )

    # demands are d_H(v) + 1 - f_H(v) = d_G(v) + 1 - f(v): invariant under peeling
    mask = g.full_mask()
    amask = mask_of(a_set)
    while True:
        assert mask, "peeling can never empty H"
        f_h = {v: ftab[v] + g.deg_in(v, mask) - g.degrees[v] for v in bits(mask)}
        digraph, x = _build_kp_masked(g, mask, amask, f_h)
        if digraph is not None:
            return Certificate(tuple(bits(mask)), digraph, f_h)
        xmask = mask_of(x)
        assert xmask and xmask != mask, "violating set must be a proper nonempty subset"
        mask &= ~xmask
        _assert_counting_invariant(g, mask, a_set, ftab)


def _assert_counting_invariant(g: Graph, mask: int, a_set, ftab) -> None:
    verts = bits(mask)
    amask = mask_of(a_set) & mask
    # A is independent, so each H-edge meeting A has exactly one end in A
    h_a_edges = sum(g.deg_in(v, mask) for v in bits(amask))
    need = sum(g.degrees[v] + 1 - ftab[v] for v in verts)
    assert h_a_edges >= need, "peeling must preserve the counting inequality"


# ---------------------------------------------------------------------------
# OC-reducibility and the independent cover bound
# ---------------------------------------------------------------------------


def is_oc_reducible(g: Graph) -> Optional[tuple[tuple[int, ...], dict[int, int]]]:
    """Smallest induced subgraph H that is online f_H-choosable, if any.

    f_H(v) = delta(G) + d_H(v) - d_G(v).  Candidates are scanned in increasing
    size, lexicographic within a size, and checked with the exact game solver,
    so the first hit is the deterministic witness.  Returns (vertices, f_H) or
    None when g is OC-irreducible.

    Two sound cuts keep most candidates away from the solver:

    - A candidate with f_H(v) <= 1 for some member v is never the first hit.
      At 0 Painter loses at once.  At 1, Lister can open with v and its
      neighbours in H; Painter must paint v alone, and the game goes on from
      H - v with budgets f_H - 1 on the neighbours of v, which is f_{H - v}.
      So if H wins, so does H - v, and it comes earlier in the scan.
    - A candidate whose lists {1..f_H(v)} admit no proper colouring of H is
      refuted: online choosable implies choosable, which implies colourable
      from these lists in particular.
    """
    if g.n > ONLINE_VERTEX_CAP:
        raise SizeLimitError(f"OC-reducibility capped at n = {ONLINE_VERTEX_CAP}")
    if g.n == 0:
        return None
    delta = min(g.degrees)
    if delta <= 1:
        # f_H(v) <= delta for every candidate and member: the first cut
        # below refutes every candidate
        return None
    adj, degrees = g.adj, g.degrees
    solver = PaintabilitySolver(g)
    for mask, members in _size_lex_candidates(g.n):
        f_h = {}
        for v in members:
            fv = delta + (adj[v] & mask).bit_count() - degrees[v]
            if fv < 2:
                break
            f_h[v] = fv
        else:
            # the shortest lists first
            order = sorted(members, key=f_h.__getitem__)
            lists = {v: (1 << fv) - 1 for v, fv in f_h.items()}
            if _list_colourable(adj, order, lists) and solver.wins(mask, f_h):
                return members, f_h
    return None


@functools.lru_cache(maxsize=None)
def _size_lex_candidates(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every nonempty vertex set of 0..n-1, as (mask, members), in increasing
    size and lexicographic within a size; built once per n."""
    masks = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), lex_key(m)))
    return tuple((m, tuple(bits(m))) for m in masks)


@dataclass(frozen=True)
class MicStrengthRecord:
    irreducible: bool
    mic_value: int
    bound: int
    holds: bool


def check_mic_strength(g: Graph) -> MicStrengthRecord:
    """OC-irreducible graphs satisfy mic(G) <= 2||G|| - (delta - 1)|G| - 1.

    Vacuously true for reducible graphs; for irreducible ones the bound is
    checked against the exact independent cover number.
    """
    if g.n > ONLINE_VERTEX_CAP:
        raise SizeLimitError(f"mic-strength check capped at n = {ONLINE_VERTEX_CAP}")
    reducible = is_oc_reducible(g) is not None
    value = mic(g).value
    delta = min(g.degrees) if g.n else 0
    bound = 2 * g.m - (delta - 1) * g.n - 1
    holds = True if reducible else value <= bound
    return MicStrengthRecord(not reducible, value, bound, holds)


# ---------------------------------------------------------------------------
# Gluing check: choosable parts imply a choosable whole
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutLemmaRecord:
    rest_choosable: bool   # G - H online choosable with f restricted
    part_choosable: bool   # H online choosable with f_H
    whole_choosable: Optional[bool]  # evaluated only when both antecedents hold
    holds: bool            # False only on a genuine counterexample


def cut_lemma_check(g: Graph, f: DegreeTable, h_vertices: Iterable[int]) -> CutLemmaRecord:
    """If G - H is online f-choosable and H is online f_H-choosable with
    f_H(v) = f(v) + d_H(v) - d_G(v), then G must be online f-choosable."""
    if g.n > CUT_LEMMA_CAP:
        raise SizeLimitError(f"cut-lemma check capped at n = {CUT_LEMMA_CAP}")
    hmask = mask_of(h_vertices)
    if hmask & ~g.full_mask():
        raise ValueError("h_vertices outside the graph")
    ftab = _table(f, range(g.n))
    solver = PaintabilitySolver(g)
    rest = g.full_mask() & ~hmask
    rest_ok = solver.wins(rest, ftab)
    f_h = {
        v: ftab[v] + g.deg_in(v, hmask) - g.degrees[v] for v in bits(hmask)
    }
    part_ok = all(val >= 1 for val in f_h.values()) and solver.wins(hmask, f_h)
    if not (rest_ok and part_ok):
        return CutLemmaRecord(rest_ok, part_ok, None, True)
    whole = solver.wins(g.full_mask(), ftab)
    return CutLemmaRecord(rest_ok, part_ok, whole, whole)
