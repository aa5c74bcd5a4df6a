"""Ground-truth oracles: list colorability, the online painting game, and
exact chromatic numbers.

The painting game: Lister repeatedly presents a nonempty set S of remaining
vertices, Painter commits an independent subset I of S and removes it, and
every vertex of S - I loses one budget token.  Painter wins if the graph
empties before any remaining vertex's budget reaches zero.  Two walkers ask
the two questions the checker has about this game.  ``is_online_f_choosable``
asks whether Painter wins at all, by memoized minimax; it is the oracle every
constructive strategy in the package is checked against, so it stays
self-contained (no SAT/ILP backends) and mirrors the recursive definition
directly.  ``play_paint_game`` asks whether one fixed Painter (a callable:
greedy, the kernel painter, or any other) survives every line Lister can
play, and returns a losing line when it does not.

Both walkers carry a state as (remaining-vertex mask, packed budgets), and
both build what does not depend on the budgets once.  The solver keeps, per
mask, the constants of its tests on the packed budgets and the components,
and per S, Painter's maximal independent answers with their moves.  A
painter answers S alone, as the Kernel Lemma's Painter does with a kernel
of the certificate digraph on S, so the walk asks it once per S and keeps
the move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .bits import bits, mask_of
from .errors import SizeLimitError
from .graphs import Graph
from .orient import KP_CHECK_CAP, Digraph, DegreeTable, _kernel_table, _table

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
    "play_paint_game",
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


def _f_core(g: Graph, ftab: dict[int, int]) -> int:
    """The vertices left after deleting, one by one, vertices holding more
    tokens than remaining neighbors.  A deleted vertex finds a colour of its
    list whatever its remaining neighbors took, so greedy coloring in
    reverse deletion order extends any coloring of the core: g is colorable
    from an f-assignment iff its core is."""
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
            break
    return alive


def is_f_choosable(g: Graph, f: DegreeTable) -> ChoosabilityResult:
    """Is g colorable from every assignment of f(v) colors per vertex?

    Any list assignment maps onto a pool of Sum f(v) colors, and renaming
    colors does not matter, so assignments are enumerated with colors
    introduced in first-use order (each vertex picks some already-seen colors
    and pads with fresh ones).  Two cutoffs keep this honest but fast: only
    the f-core (``_f_core``) gets lists, the other vertices being colorable
    greedily from any lists, and a prefix of lists that already uncolors its
    induced subgraph can never be repaired by the remaining vertices.
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
    core = bits(_f_core(g, ftab))
    lists = [0] * g.n  # colour masks

    def assign(i: int, used: int) -> Optional[dict[int, frozenset[int]]]:
        # reaching the end of the core means every prefix (hence the whole
        # assignment) was colorable on the way down
        if i == len(core):
            return None
        v = core[i]
        k = ftab[v]
        for fresh in range(k + 1):
            old_needed = k - fresh
            if old_needed > used:
                continue
            for olds in itertools.combinations(range(used), old_needed):
                lists[v] = mask_of(olds) | ((1 << fresh) - 1) << used
                if not _list_colourable(g.adj, core[:i + 1], lists):
                    # no extension can repair an uncolorable induced prefix:
                    # pad the rest with pairwise-fresh lists as the witness
                    pool = used + fresh
                    placed = mask_of(core[:i + 1])
                    for u in range(g.n):
                        if not placed >> u & 1:
                            lists[u] = ((1 << ftab[u]) - 1) << pool
                            pool += ftab[u]
                    return {u: frozenset(bits(lists[u])) for u in range(g.n)}
                bad = assign(i + 1, used + fresh)
                if bad is not None:
                    return bad
        return None

    bad = assign(0, 0)
    return ChoosabilityResult(bad is None, bad)


def _list_colourable(adj: Sequence[int], order: Sequence[int],
                     lists: Union[Sequence[int], Mapping[int, int]]) -> bool:
    """Can every vertex v of ``order`` take a colour of ``lists[v]``, a colour
    mask (bit c for colour c), adjacent vertices taking different colours?

    Vertices are coloured in the given order, each trying its colours in
    ascending order; every colour keeps the mask of the vertices holding it,
    so a colour is free for v when that mask misses ``adj[v]``.  Vertices
    outside ``order`` are ignored.
    """
    classes = [0] * max(map(lists.__getitem__, order), default=0).bit_length()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        row = adj[v]
        for c in bits(lists[v]):
            if not row & classes[c]:
                classes[c] |= 1 << v
                if extend(i + 1):
                    return True
                classes[c] ^= 1 << v
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Online choosability (the painting game)
# ---------------------------------------------------------------------------


class _Spread(dict):
    """mask -> an int with a 1 at the bottom of the field of every vertex of
    mask; each entry is computed the first time it is asked for."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, mask: int) -> int:
        out = 0
        for v in bits(mask):
            out |= 1 << self.width * v
        self[mask] = out
        return out


class _Packing:
    """Game budgets packed into one int, a ``width``-bit field per vertex.

    Vertex v's budget sits at bit ``width * v`` and up, and the fields of
    vertices that have left the game are 0, so a game state is two ints,
    (remaining-vertex mask, packed budgets), and serves as a memo key as it
    stands.  Budgets never rise, and no round is played from a state with an
    empty field, so a field never borrows from the next one: a round is one
    subtraction and one and-mask, which :meth:`move` computes.
    """

    __slots__ = ("width", "fill", "spread")

    def __init__(self, width: int):
        self.width = width
        self.fill = (1 << width) - 1
        self.spread = _Spread(width)

    def pack(self, mask: int, budgets) -> int:
        """The budgets (indexed by vertex) of the vertices of mask; a budget
        at or below 0 packs as 0."""
        out = 0
        for v in bits(mask):
            if budgets[v] > 0:
                out |= budgets[v] << self.width * v
        return out

    def exhausted(self, mask: int, packed: int) -> bool:
        """Has some vertex of mask no budget left?  Taking 1 from every field
        of mask sets the top bit of the lowest empty field, and newly sets no
        top bit below it."""
        ones = self.spread[mask]
        return bool((packed - ones) & ~packed & ones << self.width - 1)

    def move(self, smask: int, imask: int) -> tuple[int, int, int]:
        """Painter answers S with I: I leaves the game and every vertex of
        S - I spends one token.  Returns (~I, dec, keep), which take any
        state (mask, packed) whose remaining vertices include S to the next
        state, (mask & ~I, (packed - dec) & keep).  None of the three depends
        on the state, so a walker can build them once per (S, I)."""
        spread = self.spread
        return ~imask, spread[smask & ~imask], ~(self.fill * spread[imask])


class PaintabilitySolver:
    """Memoized exact solver for the painting game on one host graph.

    A state is (remaining-vertex mask, packed budgets): the budgets sit in one
    int with 4 bits per vertex (``ONLINE_BUDGET_CAP`` = 7 leaves each field a
    spare top bit), and ``memo`` maps every state the solver has entered to
    its verdict, whichever rule below decided it, so no state is decided
    twice.  Callers may start from any induced subgraph of the host, which
    lets a single memo table serve every candidate subgraph of the same
    graph.  Three sound reductions keep the search tractable: vertices whose
    budget exceeds their remaining degree are removed (they can always be
    painted last), components are solved independently, and Painter only
    ever uses maximal independent subsets of S (painting more is never
    worse).

    What does not depend on the budgets is built once and kept for the
    solver's life: per remaining-vertex mask, the constants of the tests on
    the packed budgets and the components; per S, Painter's answers, each
    with its move from :meth:`_Packing.move`.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.adj = g.adj
        self.memo: dict[tuple[int, int], bool] = {}
        self._packing = _Packing(4)
        self._tests: dict[int, tuple[int, int, int]] = {}
        self._components: dict[int, tuple[tuple[int, int], ...]] = {}
        self._answers: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._mis: dict[int, tuple[int, ...]] = {0: (0,)}

    # -- public entry points ---------------------------------------------

    def wins(self, vertices: Union[int, Iterable[int]], f: DegreeTable) -> bool:
        """Does Painter win the game on the induced subgraph with budgets f?
        A vertex outside the host graph raises ``ValueError``."""
        mask = vertices if isinstance(vertices, int) else mask_of(vertices)
        if mask < 0 or mask >> self.g.n:
            raise ValueError("vertices outside the host graph")
        if mask.bit_count() > ONLINE_VERTEX_CAP:
            raise SizeLimitError(f"online solver capped at {ONLINE_VERTEX_CAP} vertices")
        return self._solve(mask, self._pack(mask, _table(f, bits(mask))))

    # -- internals ---------------------------------------------------------

    def _pack(self, mask: int, budgets) -> int:
        if any(budgets[v] > ONLINE_BUDGET_CAP for v in bits(mask)):
            raise SizeLimitError(f"online solver capped at budget {ONLINE_BUDGET_CAP}")
        return self._packing.pack(mask, budgets)

    def _answers_to(self, smask: int) -> tuple[tuple[int, int, int], ...]:
        """Painter's answers to S, each as its move (~I, dec, keep)."""
        move = self._packing.move
        got = self._answers[smask] = tuple(
            [move(smask, i) for i in self._maximal_independent_sets(smask)])
        return got

    def _maximal_independent_sets(self, smask: int) -> tuple[int, ...]:
        """The maximal independent subsets of S, in descending numeric order.

        With v the top vertex of S and S' = S - v, they are J + v for every
        maximal independent J of S' - N(v) (v covers its neighbours), then
        every maximal independent I of S' that meets N(v) (so covers v)."""
        got = self._mis.get(smask)
        if got is None:
            top = 1 << smask.bit_length() - 1
            rest = smask ^ top
            near = self.adj[top.bit_length() - 1]
            got = self._mis[smask] = (
                *[j | top for j in self._maximal_independent_sets(rest & ~near)],
                *[i for i in self._maximal_independent_sets(rest) if i & near])
        return got

    def _mask_tests(self, mask: int) -> tuple[int, int, int]:
        """The constants of the three tests on the packed budgets of mask: a
        1 at the bottom of every field, a 1 at the top of every field, and
        d(v) + 1 in v's field, d(v) its degree in mask (at most 8, which no
        budget reaches)."""
        ones = self._packing.spread[mask]
        room = 0
        for v in bits(mask):
            room |= min((self.adj[v] & mask).bit_count() + 1, 8) << 4 * v
        got = self._tests[mask] = (ones, ones << 3, room)
        return got

    def _mask_components(self, mask: int) -> tuple[tuple[int, int], ...]:
        """The components of the subgraph on mask, each with its fields."""
        fill, spread = self._packing.fill, self._packing.spread
        got = self._components[mask] = tuple(
            (c, fill * spread[c]) for c in self.g.component_masks(within=mask))
        return got

    def _solve(self, mask: int, packed: int) -> bool:
        if not mask:
            return True
        key = (mask, packed)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self._decide(mask, packed)
        return got

    def _decide(self, mask: int, packed: int) -> bool:
        ones, tops, room = self._tests.get(mask) or self._mask_tests(mask)
        # a remaining vertex with no budget loses outright
        if (packed - ones) & ~packed & tops:
            return False
        # peel: budget above remaining degree means the vertex is always
        # safe.  Every field of (packed | tops) - room is 8 + budget - room,
        # between 1 and 14, so its top bit is set exactly when budget >= room.
        over = ((packed | tops) - room) & tops
        if over:
            gone = over >> 3
            keep = mask
            v = gone
            while v:
                low = v & -v
                keep ^= 1 << (low.bit_length() >> 2)
                v ^= low
            return self._solve(keep, packed & ~(gone * 15))
        # quick Lister win: an edge whose two endpoints both hold one token.
        # A field holding 1 is 0 in packed ^ ones, the only field of it whose
        # top bit stays clear after (packed ^ ones | tops) - ones.
        single = ~(((packed ^ ones) | tops) - ones) & tops
        if single:
            single >>= 3
            adj, spread = self.adj, self._packing.spread
            v = single
            while v:
                low = v & -v
                if spread[adj[low.bit_length() >> 2]] & single:
                    return False
                v ^= low
        comps = self._components.get(mask) or self._mask_components(mask)
        if len(comps) > 1:
            return all(self._solve(c, packed & fields) for c, fields in comps)
        # Lister wins by some S that no answer of Painter survives.  Rounds
        # strictly shrink the state, so the recursion cannot come back here;
        # the full set comes first: it is usually Lister's sharpest move, so
        # losses surface fast.  No vertex was peeled, so every vertex has a
        # neighbour in mask and no answer empties it.
        memo, decide, answers = self.memo, self._decide, self._answers
        smask = mask
        while smask:
            for not_i, dec, keep in answers.get(smask) or self._answers_to(smask):
                key = (mask & not_i, (packed - dec) & keep)
                got = memo.get(key)
                if got is None:
                    got = memo[key] = decide(*key)
                if got:
                    break
            else:
                return False
            smask = (smask - 1) & mask
        return True


def is_online_f_choosable(g: Graph, f: DegreeTable) -> bool:
    """Exact evaluation of the painting game on g with budgets f."""
    return PaintabilitySolver(g).wins(g.full_mask(), f)


# ---------------------------------------------------------------------------
# One painter against every Lister line
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
    states_explored: int = 0

    def to_json(self) -> list[dict]:
        return [
            {"S": list(r.listed), "I": list(r.painted),
             "budgets": {str(k): v for k, v in sorted(r.budgets.items())}}
            for r in self.transcript
        ]


PainterFn = Callable[[Graph, int], int]


def greedy_painter(g: Graph, smask: int) -> int:
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
    verts = cert_digraph.verts
    labels = [0] * (1 << len(verts))  # position mask -> vertex-label mask
    for pos in range(1, len(labels)):
        low = pos & -pos
        labels[pos] = labels[pos ^ low] | 1 << verts[low.bit_length() - 1]
    table = _kernel_table(cert_digraph.und, cert_digraph.into)
    kernels = {labels[sub]: None if kernel is None else labels[kernel]
               for sub, kernel in enumerate(table)}
    vmask = labels[-1]

    def painter(g: Graph, smask: int) -> int:
        kernel = kernels[smask & vmask]
        if kernel is None:
            raise ValueError("certificate digraph is not kernel-perfect on S")
        return kernel

    return painter


def play_paint_game(g: Graph, f: DegreeTable,
                    painter: PainterFn = greedy_painter) -> GameOutcome:
    """Walk every line Lister can play on g with budgets f against one fixed
    Painter.

    ``painter`` is a strategy callable ``painter(g, S) -> I``, S and I
    vertex masks: :func:`greedy_painter`, one from
    :func:`make_kernel_painter`, or any other; anything else raises
    ``ValueError``.  Its answer depends on S alone, so it is asked once per
    S, the first time the walk lists S, and an error it raises, or an answer
    that is no independent subset of S, surfaces as a ``ValueError`` at
    that round.  The winner is "painter" when it survives every line, and
    the transcript is then empty; otherwise the transcript is a losing line,
    each round recording its S, I, and the budgets left after it.

    The budgets travel packed in one int, with fields one bit wider than the
    largest starting budget (and at least 4 bits).
    """
    if not callable(painter):
        raise ValueError(f"painter must be a strategy callable, not {painter!r}")
    ftab = _table(f, range(g.n))
    packing = _Packing(max(4, max([0, *ftab.values()]).bit_length() + 1))
    mask = g.full_mask()
    return _traverse_all_lines(g, packing, mask, packing.pack(mask, ftab), painter)


def _check_painter_move(g: Graph, smask: int, imask: int) -> None:
    """Raise unless imask is an independent subset of smask."""
    if imask & ~smask:
        raise ValueError("painter's set must be a subset of S")
    adj = g.adj
    rest = imask
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & imask:
            raise ValueError("painter's set must be independent")
        rest ^= low


def _record(packing: _Packing, mask: int, packed: int, smask: int, imask: int) -> GameRound:
    width, fill = packing.width, packing.fill
    return GameRound(
        listed=tuple(bits(smask)),
        painted=tuple(bits(imask)),
        budgets={v: packed >> width * v & fill for v in bits(mask)},
    )


def _traverse_all_lines(g: Graph, packing: _Packing, mask0: int, packed0: int,
                        painter_fn: PainterFn) -> GameOutcome:
    """Painter's moves are fixed, so states repeat: each state, the pair
    (remaining-vertex mask, packed budgets), is walked once.  Rounds strictly
    shrink the state, so a state is never met again while it is walked, and
    the first lost state ends the walk: every state met again was survived.
    A walked state has no empty field, so its packed budgets alone name it.

    A state's moves are one per nonempty S, in descending numeric order.
    The painter is asked for S, and its answer checked, the first time the
    walk lists S, and the move is kept as :meth:`_Packing.move` gives it, as
    the solver keeps its answers.  A round leaves a field empty exactly when
    it takes a token from a vertex holding one."""
    walked = {0}  # the empty state: Painter has won
    answers: dict[int, tuple[int, int, int]] = {}
    explored = 0
    move, spread = packing.move, packing.spread
    top = packing.width - 1

    def answer(smask: int) -> tuple[int, int, int]:
        imask = painter_fn(g, smask)
        _check_painter_move(g, smask, imask)
        got = answers[smask] = move(smask, imask)
        return got

    def survive(mask: int, packed: int) -> Optional[list[GameRound]]:
        # None = painter survives every line; otherwise a losing line
        nonlocal explored
        walked.add(packed)
        explored += 1
        ones = spread[mask]
        tops = ones << top
        # a 1 at the bottom of each field holding one token: the only fields
        # of packed ^ ones that are 0, and the only ones whose top bit
        # (packed ^ ones | tops) - ones clears
        lone = (~(((packed ^ ones) | tops) - ones) & tops) >> top
        smask = mask
        while smask:
            not_i, dec, keep = answers.get(smask) or answer(smask)
            child = (packed - dec) & keep
            if dec & lone:  # a vertex of S - I spent its last token
                return [_record(packing, mask & not_i, child, smask, ~not_i)]
            # a state already survived, or the empty one: nothing to walk
            if child not in walked:
                line = survive(mask & not_i, child)
                if line is not None:
                    return [_record(packing, mask & not_i, child, smask, ~not_i)] + line
            smask = (smask - 1) & mask
        return None

    if not mask0:
        return GameOutcome("painter", (), states_explored=0)
    if packing.exhausted(mask0, packed0):
        return GameOutcome("lister", (), states_explored=0)
    line = survive(mask0, packed0)
    if line is None:
        return GameOutcome("painter", (), states_explored=explored)
    return GameOutcome("lister", tuple(line), states_explored=explored)


# ---------------------------------------------------------------------------
# Chromatic number and criticality
# ---------------------------------------------------------------------------


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number (n <= 12): the least k for which the vertices,
    in descending degree order, take colours from their first-use lists."""
    if g.n > CHROMATIC_CAP:
        raise SizeLimitError(f"chromatic number capped at {CHROMATIC_CAP} vertices")
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    return next(k for k in range(g.n + 1)
                if _list_colourable(g.adj, order, _first_use_lists(order, k)))


def _first_use_lists(order: Sequence[int], k: int) -> dict[int, int]:
    """The i-th vertex of ``order`` gets the colours below min(i + 1, k).

    Renaming the colours of any proper k-colouring in the order of their
    first use along ``order`` puts a colour below i + 1 on the i-th vertex,
    so these lists admit a colouring exactly when the graph on ``order`` is
    k-colourable, and the search skips most renamings of one colouring.
    """
    below_k = (1 << k) - 1
    return {v: ((2 << i) - 1) & below_k for i, v in enumerate(order)}


def is_k_critical(g: Graph, k: int) -> bool:
    """chi(g) = k and deleting any single vertex drops the chromatic number,
    so every g - v takes colours from the first-use lists of k - 1 colours."""
    if chromatic_number(g) != k:
        return False
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    for v in range(g.n):
        rest = [u for u in order if u != v]
        if not _list_colourable(g.adj, rest, _first_use_lists(rest, k - 1)):
            return False
    return True
