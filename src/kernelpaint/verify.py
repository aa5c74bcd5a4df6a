"""Ground-truth oracles: list colorability, the online painting game, and
exact chromatic numbers.

The painting game: Lister repeatedly presents a nonempty set S of remaining
vertices, Painter commits an independent subset I of S and removes it, and
every vertex of S - I loses one budget token.  Painter wins if the graph
empties before any remaining vertex's budget reaches zero.  ``is_online_f_choosable``
evaluates this game exactly by memoized minimax; it is the oracle every
constructive strategy in the package is checked against, so it stays
self-contained (no SAT/ILP backends) and mirrors the recursive definition
directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .bits import bits, lex_key, mask_of, submasks
from .errors import SizeLimitError
from .graphs import Graph
from .orient import KP_CHECK_CAP, Digraph, DegreeTable, _arc_masks, _kernel_table, _table

__all__ = [
    "ChoosabilityResult",
    "GameOutcome",
    "GameRound",
    "PaintabilitySolver",
    "chromatic_number",
    "greedy_painter",
    "is_f_choosable",
    "is_k_critical",
    "is_online_f_choosable",
    "make_kernel_painter",
    "optimal_lister",
    "optimal_painter",
    "play_paint_game",
    "random_lister",
    "scripted_lister",
]

CHOOSABLE_VERTEX_CAP = 8
CHOOSABLE_TOKEN_CAP = 20
ONLINE_VERTEX_CAP = 7
ONLINE_BUDGET_CAP = 7
CHROMATIC_CAP = 12


# ---------------------------------------------------------------------------
# Offline choosability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoosabilityResult:
    value: bool
    bad_assignment: Optional[dict[int, frozenset[int]]]  # uncolorable lists on failure

    def __bool__(self) -> bool:
        return self.value


def _f_degenerate(g: Graph, ftab: dict[int, int]) -> bool:
    """Can vertices be deleted one by one, each holding more tokens than
    remaining neighbors?  Greedy coloring in reverse deletion order then
    colors any f-assignment, so this is a sufficient colorability test."""
    alive = g.full_mask()
    while alive:
        peeled = False
        m = alive
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if ftab[v] > (g.adj[v] & alive).bit_count():
                alive &= ~low
                peeled = True
            m ^= low
        if not peeled:
            return False
    return True


def is_f_choosable(g: Graph, f: DegreeTable) -> ChoosabilityResult:
    """Is g colorable from every assignment of f(v) colors per vertex?

    Any list assignment maps onto a pool of Sum f(v) colors, and renaming
    colors does not matter, so assignments are enumerated with colors
    introduced in first-use order (each vertex picks some already-seen colors
    and pads with fresh ones).  Two cutoffs keep this honest but fast: an
    f-degenerate graph is colorable greedily from any lists, and a prefix of
    lists that already uncolors its induced subgraph can never be repaired by
    the remaining vertices.
    """
    ftab = _table(f, range(g.n))
    if g.n > CHOOSABLE_VERTEX_CAP:
        raise SizeLimitError(f"choosability capped at {CHOOSABLE_VERTEX_CAP} vertices")
    if sum(ftab.values()) > CHOOSABLE_TOKEN_CAP:
        raise SizeLimitError(
            f"choosability capped at total list size {CHOOSABLE_TOKEN_CAP}"
        )
    if any(ftab[v] < 1 for v in range(g.n)):
        # a vertex with an empty list is trivially uncolorable
        bad = {v: frozenset(range(ftab[v])) for v in range(g.n)}
        return ChoosabilityResult(False, bad)
    if _f_degenerate(g, ftab):
        return ChoosabilityResult(True, None)

    lists: list[frozenset[int]] = [frozenset()] * g.n

    def prefix_colorable(upto: int) -> bool:
        coloring = [-1] * upto

        def go(v: int) -> bool:
            if v == upto:
                return True
            for c in sorted(lists[v]):
                if all(coloring[u] != c for u in g.neighbors(v) if u < upto):
                    coloring[v] = c
                    if go(v + 1):
                        return True
                    coloring[v] = -1
            return False

        return go(0)

    def assign(v: int, used: int) -> Optional[dict[int, frozenset[int]]]:
        # reaching v == g.n means every prefix (hence the whole assignment)
        # was colorable on the way down
        if v == g.n:
            return None
        k = ftab[v]
        for fresh in range(k + 1):
            old_needed = k - fresh
            if old_needed > used:
                continue
            for olds in itertools.combinations(range(used), old_needed):
                lists[v] = frozenset(olds) | frozenset(range(used, used + fresh))
                if not prefix_colorable(v + 1):
                    # no extension can repair an uncolorable induced prefix:
                    # pad the rest with pairwise-fresh lists as the witness
                    pool = used + fresh
                    for u in range(v + 1, g.n):
                        lists[u] = frozenset(range(pool, pool + ftab[u]))
                        pool += ftab[u]
                    return {u: lists[u] for u in range(g.n)}
                bad = assign(v + 1, used + fresh)
                if bad is not None:
                    return bad
        return None

    bad = assign(0, 0)
    return ChoosabilityResult(bad is None, bad)


# ---------------------------------------------------------------------------
# Online choosability (the painting game)
# ---------------------------------------------------------------------------


class PaintabilitySolver:
    """Memoized exact solver for the painting game on one host graph.

    States are (remaining-vertex mask, budget tuple); callers may start from
    any induced subgraph of the host, which lets a single memo table serve
    every candidate subgraph of the same graph.  Three sound reductions keep
    the search tractable: vertices whose budget exceeds their remaining degree
    are removed (they can always be painted last), components are solved
    independently, and Painter only ever uses maximal independent subsets of S
    (painting more is never worse).
    """

    def __init__(self, g: Graph):
        self.g = g
        self.adj = g.adj
        self.memo: dict[tuple[int, tuple[int, ...]], bool] = {}
        self._mis_cache: dict[int, tuple[int, ...]] = {}

    # -- public entry points ---------------------------------------------

    def wins(self, vertices: Union[int, Iterable[int]], f: DegreeTable) -> bool:
        """Does Painter win the game on the induced subgraph with budgets f?"""
        mask = vertices if isinstance(vertices, int) else mask_of(vertices)
        if mask.bit_count() > ONLINE_VERTEX_CAP:
            raise SizeLimitError(f"online solver capped at {ONLINE_VERTEX_CAP} vertices")
        ftab = _table(f, bits(mask))
        if any(val > ONLINE_BUDGET_CAP for val in ftab.values()):
            raise SizeLimitError(f"online solver capped at budget {ONLINE_BUDGET_CAP}")
        budgets = tuple(
            max(0, ftab.get(v, 0)) if mask >> v & 1 else 0 for v in range(self.g.n)
        )
        return self._solve(mask, budgets)

    # -- internals ---------------------------------------------------------

    def maximal_independent_sets(self, smask: int) -> tuple[int, ...]:
        got = self._mis_cache.get(smask)
        if got is not None:
            return got
        adj = self.adj
        members = bits(smask)
        sets = []
        for pick in submasks(smask):
            ok = True
            for v in members:
                if pick >> v & 1:
                    if adj[v] & pick:
                        ok = False
                        break
                elif not adj[v] & pick:
                    ok = False
                    break
            if ok and pick:
                sets.append(pick)
        out = tuple(sets)
        self._mis_cache[smask] = out
        return out

    def _solve(self, mask: int, budgets: tuple[int, ...]) -> bool:
        if not mask:
            return True
        adj = self.adj
        # a remaining vertex with no budget loses outright
        v = mask
        while v:
            low = v & -v
            if budgets[low.bit_length() - 1] < 1:
                return False
            v ^= low
        # peel: budget above remaining degree means the vertex is always safe
        peeled = False
        v = mask
        while v:
            low = v & -v
            u = low.bit_length() - 1
            if budgets[u] > (adj[u] & mask).bit_count():
                mask &= ~low
                peeled = True
            v ^= low
        if peeled:
            return self._solve(mask, _restrict(budgets, mask))
        if not mask:
            return True
        # quick Lister win: an edge whose two endpoints both hold one token
        v = mask
        while v:
            low = v & -v
            u = low.bit_length() - 1
            if budgets[u] == 1 and any(
                budgets[w] == 1 for w in bits(adj[u] & mask & -(low << 1))
            ):
                return False
            v ^= low
        comps = self.g.component_masks(within=mask)
        if len(comps) > 1:
            return all(self._solve(c, _restrict(budgets, c)) for c in comps)
        key = (mask, budgets)
        got = self.memo.get(key)
        if got is not None:
            return got
        # rounds strictly shrink the mask, so the recursion cannot revisit key;
        # the full set comes first: it is usually Lister's sharpest move, so
        # losses surface fast
        result = all(self._painter_can_answer(mask, budgets, smask)
                     for smask in submasks(mask) if smask)
        self.memo[key] = result
        return result

    def _painter_can_answer(self, mask: int, budgets: tuple[int, ...], smask: int) -> bool:
        return any(self._solve(*_apply_round(mask, budgets, smask, imask))
                   for imask in self.maximal_independent_sets(smask))

    # -- strategy extraction ----------------------------------------------

    def lister_winning_move(self, mask: int, budgets: tuple[int, ...]) -> Optional[int]:
        """Lex-smallest S that defeats every Painter answer, if one exists."""
        for smask in sorted(submasks(mask)):
            if smask and not self._painter_can_answer(mask, budgets, smask):
                return smask
        return None

    def painter_winning_move(self, mask: int, budgets: tuple[int, ...], smask: int) -> Optional[int]:
        """Lex-smallest independent I <= S whose successor state Painter wins."""
        for imask in sorted(self.maximal_independent_sets(smask), key=lex_key):
            if self._solve(*_apply_round(mask, budgets, smask, imask)):
                return imask
        return None


def _restrict(budgets: Sequence[int], mask: int) -> tuple[int, ...]:
    return tuple(b if mask >> v & 1 else 0 for v, b in enumerate(budgets))


def _apply_round(mask: int, budgets: tuple[int, ...], smask: int,
                 imask: int) -> tuple[int, tuple[int, ...]]:
    """The state after Painter answers S with I: I leaves the game and every
    vertex of S - I spends one token."""
    nmask = mask & ~imask
    nb = list(budgets)
    dec = smask & ~imask
    while dec:
        low = dec & -dec
        nb[low.bit_length() - 1] -= 1
        dec ^= low
    return nmask, _restrict(nb, nmask)


def is_online_f_choosable(g: Graph, f: DegreeTable) -> bool:
    """Exact evaluation of the painting game on g with budgets f."""
    return PaintabilitySolver(g).wins(g.full_mask(), f)


# ---------------------------------------------------------------------------
# The painting game with pluggable strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameRound:
    listed: tuple[int, ...]
    painted: tuple[int, ...]
    budgets: dict[int, int]  # budgets of the vertices still in play, after the round


@dataclass(frozen=True)
class GameOutcome:
    winner: str  # "painter" | "lister"
    transcript: tuple[GameRound, ...]
    all_lines: bool = False       # True when every Lister line was traversed
    states_explored: int = 0

    def to_json(self) -> list[dict]:
        return [
            {"S": list(r.listed), "I": list(r.painted),
             "budgets": {str(k): v for k, v in sorted(r.budgets.items())}}
            for r in self.transcript
        ]


PainterFn = Callable[[Graph, int, tuple[int, ...], int], int]
ListerFn = Callable[[Graph, int, tuple[int, ...]], int]


def greedy_painter(g: Graph, mask: int, budgets: tuple[int, ...], smask: int) -> int:
    """Maximal independent subset of S grown in ascending vertex order."""
    imask = 0
    for v in bits(smask):
        if not g.adj[v] & imask:
            imask |= 1 << v
    return imask


def make_kernel_painter(cert_digraph: Digraph) -> PainterFn:
    """Painter that answers S with a kernel of the certificate digraph on S.

    The digraph must be kernel-perfect over the game's vertex set; every
    induced subdigraph then has a kernel, kernels are independent, and every
    rejected vertex of S spends an out-arc, which is what keeps budgets ahead
    of out-degrees for the whole game.  The answer to every S is the smallest
    kernel of the digraph on S (vertices of S outside the digraph are
    ignored); all of them come from one kernel table, built when the painter
    is made, so each move is a lookup.  The table has 2^n entries, so n is
    capped as in :func:`kernelpaint.orient.is_kernel_perfect`.
    """
    if cert_digraph.n > KP_CHECK_CAP:
        raise SizeLimitError(f"kernel painter capped at {KP_CHECK_CAP} vertices")
    verts, und, out = _arc_masks(cert_digraph)
    labels = [0] * (1 << len(verts))  # position mask -> vertex-label mask
    for pos in range(1, len(labels)):
        low = pos & -pos
        labels[pos] = labels[pos ^ low] | 1 << verts[low.bit_length() - 1]
    kernels = {labels[sub]: None if kernel is None else labels[kernel]
               for sub, kernel in enumerate(_kernel_table(und, out))}
    vmask = labels[-1]

    def painter(g: Graph, mask: int, budgets: tuple[int, ...], smask: int) -> int:
        kernel = kernels[smask & vmask]
        if kernel is None:
            raise ValueError("certificate digraph is not kernel-perfect on S")
        return kernel

    return painter


def optimal_painter(solver: PaintabilitySolver) -> PainterFn:
    def painter(g: Graph, mask: int, budgets: tuple[int, ...], smask: int) -> int:
        move = solver.painter_winning_move(mask, budgets, smask)
        if move is None:
            move = min(solver.maximal_independent_sets(smask), key=lex_key)
        return move

    return painter


def optimal_lister(solver: PaintabilitySolver) -> ListerFn:
    def lister(g: Graph, mask: int, budgets: tuple[int, ...]) -> int:
        move = solver.lister_winning_move(mask, budgets)
        return move if move is not None else mask & -mask

    return lister


def random_lister(seed: int) -> ListerFn:
    import random as _random

    rng = _random.Random(seed)

    def lister(g: Graph, mask: int, budgets: tuple[int, ...]) -> int:
        vs = bits(mask)
        pick = [v for v in vs if rng.random() < 0.5]
        if not pick:
            pick = [rng.choice(vs)]
        return mask_of(pick)

    return lister


def scripted_lister(moves: Sequence[Iterable[int]]) -> ListerFn:
    queue = [(mask_of(m)) for m in moves]
    it = iter(queue)

    def lister(g: Graph, mask: int, budgets: tuple[int, ...]) -> int:
        try:
            move = next(it)
        except StopIteration:
            raise ValueError("scripted lister ran out of moves")
        if move & ~mask or move == 0:
            raise ValueError("scripted move is not a nonempty subset of the remaining vertices")
        return move

    return lister


def play_paint_game(
    g: Graph,
    f: DegreeTable,
    painter: Union[str, PainterFn] = "greedy",
    lister: Union[str, ListerFn] = "exhaustive",
) -> GameOutcome:
    """Play (or fully traverse) the painting game on g with budgets f.

    ``painter`` is "greedy", "optimal", or a strategy callable (e.g. from
    :func:`make_kernel_painter`).  ``lister`` is "exhaustive" (traverse every
    Lister line against the fixed Painter; the outcome says whether Painter
    survived all of them), "optimal", or a strategy callable.  Transcripts
    record each round's S, I, and the budgets left after it; the exhaustive
    mode's transcript is a losing line when one exists.
    """
    ftab = _table(f, range(g.n))
    budgets = tuple(ftab[v] for v in range(g.n))
    mask = g.full_mask()

    solver: Optional[PaintabilitySolver] = None
    if painter == "optimal" or lister == "optimal":
        solver = PaintabilitySolver(g)
    painter_fn: PainterFn
    if painter == "greedy":
        painter_fn = greedy_painter
    elif painter == "optimal":
        painter_fn = optimal_painter(solver)
    elif callable(painter):
        painter_fn = painter
    else:
        raise ValueError(f"unknown painter {painter!r}")

    if lister == "exhaustive":
        return _traverse_all_lines(g, mask, budgets, painter_fn)

    lister_fn: ListerFn
    if lister == "optimal":
        lister_fn = optimal_lister(solver)
    elif callable(lister):
        lister_fn = lister
    else:
        raise ValueError(f"unknown lister {lister!r}")

    rounds: list[GameRound] = []
    while mask:
        if any(budgets[v] < 1 for v in bits(mask)):
            return GameOutcome("lister", tuple(rounds))
        smask = lister_fn(g, mask, budgets)
        if smask == 0 or smask & ~mask:
            raise ValueError("lister produced an invalid set")
        imask = painter_fn(g, mask, budgets, smask)
        _check_painter_move(g, smask, imask)
        mask, budgets = _apply_round(mask, budgets, smask, imask)
        rounds.append(_record(mask, budgets, smask, imask))
    return GameOutcome("painter", tuple(rounds))


def _check_painter_move(g: Graph, smask: int, imask: int) -> None:
    if imask & ~smask:
        raise ValueError("painter's set must be a subset of S")
    for v in bits(imask):
        if g.adj[v] & imask:
            raise ValueError("painter's set must be independent")


def _record(mask, budgets, smask, imask) -> GameRound:
    return GameRound(
        listed=tuple(bits(smask)),
        painted=tuple(bits(imask)),
        budgets={v: budgets[v] for v in bits(mask)},
    )


def _traverse_all_lines(g, mask0, budgets0, painter_fn) -> GameOutcome:
    """Painter's moves are fixed, so states repeat: cache (mask, budgets)."""
    cache: dict[tuple[int, tuple[int, ...]], bool] = {}
    explored = 0

    def survive(mask, budgets) -> Optional[list[GameRound]]:
        # None = painter survives every line; otherwise a losing line
        nonlocal explored
        if not mask:
            return None
        for v in bits(mask):
            if budgets[v] < 1:
                return []
        key = (mask, budgets)
        if key in cache:
            return None if cache[key] else []
        cache[key] = True
        explored += 1
        for smask in submasks(mask):
            if smask == 0:
                continue
            imask = painter_fn(g, mask, budgets, smask)
            _check_painter_move(g, smask, imask)
            nmask, nb = _apply_round(mask, budgets, smask, imask)
            line = survive(nmask, nb)
            if line is not None:
                cache[key] = False
                return [_record(nmask, nb, smask, imask)] + line
        return None

    line = survive(mask0, budgets0)
    if line is None:
        return GameOutcome("painter", (), all_lines=True, states_explored=explored)
    return GameOutcome("lister", tuple(line), all_lines=True, states_explored=explored)


# ---------------------------------------------------------------------------
# Chromatic number and criticality
# ---------------------------------------------------------------------------


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound (n <= 12)."""
    if g.n > CHROMATIC_CAP:
        raise SizeLimitError(f"chromatic number capped at {CHROMATIC_CAP} vertices")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    # greedy upper bound in degree order
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    color = {}
    for v in order:
        used = {color[u] for u in g.neighbors(v) if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    ub = max(color.values()) + 1
    for k in range(2, ub + 1):
        if _is_k_colorable(g, k, order):
            return k
    return ub


def _is_k_colorable(g: Graph, k: int, order: Sequence[int]) -> bool:
    color = [-1] * g.n

    def go(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        seen = {color[u] for u in g.neighbors(v) if color[u] != -1}
        limit = min(k, used + 1)  # first use of a fresh color is canonical
        for c in range(limit):
            if c in seen:
                continue
            color[v] = c
            if go(i + 1, max(used, c + 1)):
                return True
            color[v] = -1
        return False

    return go(0, 0)


def is_k_critical(g: Graph, k: int) -> bool:
    """chi(g) = k and deleting any single vertex drops the chromatic number."""
    if chromatic_number(g) != k:
        return False
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        if chromatic_number(g.induced(rest)) >= k:
            return False
    return True
