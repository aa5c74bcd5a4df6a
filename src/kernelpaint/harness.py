"""Suite runner: theorem checks over graph corpora, certificate validation,
and machine-readable reports.

Each suite walks a corpus (enumerated in-process or read from a graph6 file),
emits one record per instance with a verdict of ``pass``, ``fail`` or
``skip``, and closes with a summary object.  A suite passes iff it produced
zero ``fail`` records; skips never count, and a graph exceeding a suite's
size ceiling becomes a skip record rather than an abort.  Reports serialize
to JSON lines and are byte-identical across runs given the same inputs and
seed; timings are opt-in precisely so that determinism holds by default.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .bits import mask_of
from .errors import HypothesisNotMetError, SizeLimitError
from .graph6 import encode_graph6, read_graph6_file
from .graphs import (
    Graph,
    canonical_key,
    clique_number,
    enumerate_graphs,
    enumerate_triangle_free,
    independence_number,
    make_named,
)
from .orient import (
    KP_SEARCH_CAP,
    Digraph,
    _table,
    extend_d0_kp,
    f_KP_witnesses,
    is_f_AT,
    is_f_KP,
    is_kernel_perfect,
    orient_with_indegrees,
)
from .reduce import (
    CUT_LEMMA_CAP,
    Certificate,
    check_mic_strength,
    cut_lemma_check,
    extract_reducible,
    is_oc_reducible,
)
from .structure import (
    gallai_count_check,
    is_gallai_tree,
    low_high_split,
    mic,
    random_gallai_forest,
    sigma,
    triangle_free_mic_check,
)
from .verify import (
    PaintabilitySolver,
    is_k_critical,
    make_kernel_painter,
    play_paint_game,
)

__all__ = [
    "SUITE_NAMES",
    "SuiteReport",
    "run_suite",
    "validate_certificate",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    records: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not any(r["verdict"] == "fail" for r in self.records)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r["verdict"]] += 1
        return out

    def summary(self) -> dict:
        c = self.counts()
        skip_reasons: dict[str, int] = {}
        for r in self.records:
            if r["verdict"] == "skip":
                reason = r.get("reason", "")
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
        return {
            "suite": self.suite,
            "total": len(self.records),
            "passed": c["pass"],
            "failed": c["fail"],
            "skipped": c["skip"],
            "skip_reasons": skip_reasons,
            "ok": self.passed,
            **self.meta,
        }

    def to_jsonl(self) -> str:
        lines = [_dump(r) for r in self.records]
        lines.append(_dump({"summary": self.summary()}))
        return "\n".join(lines) + "\n"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rec(g: Graph, verdict: str, **detail) -> dict:
    return {"verdict": verdict, "graph6": encode_graph6(g), **detail}


class _Unscreened(list):
    """The graphs of a graph6 file, in file order, for a suite that checks
    connected graphs only.  An enumerated corpus for such a suite holds
    connected graphs by construction; a file may hold others."""


def _per_graph(corpus, check: Callable[[Graph], dict]) -> Iterator[dict]:
    """One record per corpus graph: the check's, with the empty graph, a
    disconnected graph of an unscreened corpus, and size-limit violations
    demoted to skip records.  Any other exception is a fault of the check,
    not a verdict: it propagates as a RuntimeError naming the graph."""
    screen = isinstance(corpus, _Unscreened)
    for g in corpus:
        if g.n == 0:
            yield _rec(g, "skip", reason="empty graph")
            continue
        if screen and not g.is_connected():
            yield _rec(g, "skip",
                       reason="disconnected: this suite checks connected graphs")
            continue
        try:
            rec = check(g)
        except SizeLimitError as exc:
            rec = _rec(g, "skip", reason=f"size limit: {exc}")
        except Exception as exc:
            raise RuntimeError(
                f"check failed on graph6 {encode_graph6(g)}: {exc!r}") from exc
        yield rec


# ---------------------------------------------------------------------------
# Certificate validation
# ---------------------------------------------------------------------------


def validate_certificate(cert: Certificate, g: Graph, f) -> tuple[bool, str]:
    """Recheck every certificate invariant exhaustively.

    Takes a :class:`Certificate`; certificate JSON is read with
    ``Certificate.from_json`` or ``Certificate.loads`` first.  A table f
    without an integer value for every vertex of g raises ``ValueError``
    naming the vertex.  Checks:
    nonempty H inside V(g), no vertex listed twice; f_h defined on H alone;
    arcs confined to H and covering every edge of G[H] (extra arcs and
    doubled pairs are allowed, the painting strategy tolerates them);
    f_h(v) = f(v) + d_H(v) - d_G(v); out-degrees strictly below f_h; and
    kernel-perfection of the digraph.
    """
    ftab = _table(f, range(g.n))
    h = cert.h_vertices
    if not h:
        return False, "empty vertex set"
    if not all(0 <= v < g.n for v in h):
        return False, "vertices outside the host graph"
    h_set = frozenset(h)
    if len(h_set) != len(h):
        return False, "h_vertices lists a vertex twice"
    if cert.digraph.vertex_set != h_set:
        return False, "digraph vertex set differs from h_vertices"
    stray = cert.f_h.keys() - h_set
    if stray:
        return False, f"f_h gives a value to vertex {min(stray)} outside H"
    # G[H]'s rows over positions in sorted H, those of the digraph's rows;
    # where H is 0..k-1 its labels are the positions
    hmask = mask_of(h)
    verts = cert.digraph.verts
    if verts[-1] == len(verts) - 1:
        g_rows = [g.adj[v] & hmask for v in verts]
    else:
        g_rows = g.induced(verts).adj
    if any(row & ~arcs for row, arcs in zip(g_rows, cert.digraph.und)):
        return False, "some edge of G[H] carries no arc"
    for v in h:
        expect = ftab[v] + g.deg_in(v, hmask) - g.degrees[v]
        if cert.f_h.get(v) != expect:
            return False, f"f_h({v}) = {cert.f_h.get(v)} but expected {expect}"
        if cert.digraph.out_degree(v) + 1 > cert.f_h[v]:
            return False, f"out-degree bound violated at {v}"
    kp = is_kernel_perfect(cert.digraph)
    if not kp:
        return False, f"digraph not kernel-perfect (witness {sorted(kp.offending)})"
    return True, "ok"


# ---------------------------------------------------------------------------
# Suite bodies
# ---------------------------------------------------------------------------


def _suite_brooks_alpha(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        delta = max(g.degrees, default=0)
        if delta < 3:
            return _rec(g, "skip", reason="max degree below 3")
        # g is connected, so a K_{Δ+1} in it has no edge leaving it: it is g
        if min(g.degrees) == g.n - 1:
            return _rec(g, "skip", reason="contains a clique on max_degree+1 vertices")
        alpha = independence_number(g)
        return _rec(g, "pass" if alpha * delta >= g.n else "fail",
                    alpha=alpha, max_degree=delta, n=g.n)

    yield from _per_graph(corpus, check)


def _suite_mic_basics(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        gallai = bool(is_gallai_tree(g))
        value = mic(g).value
        ok = value == g.n - 1 if gallai else value >= g.n
        return _rec(g, "pass" if ok else "fail", mic=value, gallai_tree=gallai, n=g.n)

    yield from _per_graph(corpus, check)


SOLVER_CONFIRM_CAP = 6


def _suite_main_lemma_d0(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        if is_gallai_tree(g):
            return _rec(g, "skip", reason="Gallai tree: independent cover too small")
        try:
            cert = extract_reducible(g, g.degrees)
        except HypothesisNotMetError as exc:
            return _rec(g, "fail", reason=f"hypothesis unexpectedly not met: {exc}")
        ok, why = validate_certificate(cert, g, g.degrees)
        detail = {"h": list(cert.h_vertices), "certificate": cert.to_json()}
        if ok and g.n <= SOLVER_CONFIRM_CAP:
            if not PaintabilitySolver(g).wins(cert.h_vertices, cert.f_h):
                ok, why = False, "game solver refutes online choosability of H"
            else:
                detail["solver_confirmed"] = True
        return _rec(g, "pass" if ok else "fail", reason="ok" if ok else why, **detail)

    yield from _per_graph(corpus, check)


def _suite_kernel_game(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        if is_gallai_tree(g):
            return _rec(g, "skip", reason="Gallai tree: no certificate to play")
        cert = extract_reducible(g, g.degrees)
        # G[H] takes the positions in sorted H as labels, as the digraph's rows do
        h = g.induced(cert.h_vertices)
        d = Digraph._from_rows(range(h.n), cert.digraph.out)
        f_h = [cert.f_h[v] for v in cert.digraph.verts]
        out = play_paint_game(h, f_h, painter=make_kernel_painter(d))
        return _rec(g, "pass" if out.winner == "painter" else "fail",
                    h=list(cert.h_vertices), states=out.states_explored,
                    losing_line=out.to_json() if out.winner != "painter" else None)

    yield from _per_graph(corpus, check)


ORIENT_ORACLE_CAP = 5


def _suite_in_orient_oracle(corpus: list[Graph]) -> Iterator[dict]:
    # Every demand table with 0 <= dem(v) <= d(v) goes to orient_with_indegrees.
    # Its verdict is checked against the definition, "some orientation meets
    # the demand", read from one set of feasible demands per graph; an
    # orientation is checked against the demands, a violating set against
    # Hakimi's bound.
    def check(g: Graph) -> dict:
        if g.n > ORIENT_ORACLE_CAP:
            return _rec(g, "skip", reason=f"oracle capped at n = {ORIENT_ORACLE_CAP}")
        feasible = _feasible_demands(g)
        checked = 0
        bad = None
        for dem in itertools.product(*[range(d + 1) for d in g.degrees]):
            res = orient_with_indegrees(g, dem)
            brute = dem in feasible
            if res.ok != brute:
                bad = {"demand": list(dem), "orient": res.ok, "brute": brute}
                break
            if res.ok:
                if any(res.orientation.in_degree(v) < dem[v] for v in range(g.n)):
                    bad = {"demand": list(dem), "error": "orientation misses a demand"}
                    break
            else:
                # the edges inside X and those leaving it: every edge at X,
                # with those inside met from both ends counted once
                x = res.violating_set
                xmask = mask_of(x)
                inside = sum((g.adj[v] & xmask).bit_count() for v in x)
                inc = sum(g.degrees[v] for v in x) - inside // 2
                if sum(dem[v] for v in x) <= inc:
                    bad = {"demand": list(dem), "error": "reported set does not violate"}
                    break
            checked += 1
        return _rec(g, "pass" if bad is None else "fail",
                    tables=checked, counterexample=bad)

    yield from _per_graph(corpus, check)


def _feasible_demands(g: Graph) -> set[tuple[int, ...]]:
    """Every demand table some orientation of g meets.  Those are the
    in-degree vectors of the orientations, closed downwards: each edge adds
    one to the demand of one end or of neither, edge by edge."""
    feasible = {(0,) * g.n}
    for edge in g.edges:
        feasible |= {dem[:v] + (dem[v] + 1,) + dem[v + 1:]
                     for dem in feasible for v in edge}
    return feasible


AT_SUITE_EDGE_CAP = 12


def _suite_at_classify(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        if g.m > AT_SUITE_EDGE_CAP:
            return _rec(g, "skip", reason=f"more than {AT_SUITE_EDGE_CAP} edges")
        gallai = bool(is_gallai_tree(g))
        at = is_f_AT(g, g.degrees)
        ok = bool(at) == (not gallai)
        return _rec(g, "pass" if ok else "fail",
                    gallai_tree=gallai, d0_at=bool(at),
                    counts=None if not at.counts else [at.counts.even, at.counts.odd])

    yield from _per_graph(corpus, check)


def _suite_kp_classify(corpus: list[Graph]) -> Iterator[dict]:
    yield from _kp_fixed_pair()

    def check(g: Graph) -> dict:
        gallai = bool(is_gallai_tree(g))
        detail: dict = {"gallai_tree": gallai, "phases": []}
        ok = True
        if g.n <= KP_SEARCH_CAP:
            dec = is_f_KP(g, g.degrees)
            detail["phases"].append("exhaustive")
            detail["d0_kp"] = bool(dec)
            if bool(dec) != (not gallai):
                ok = False
                detail["reason"] = "exhaustive search disagrees with the block dichotomy"
        if ok and not gallai:
            err = _constructive_kp_route(g)
            detail["phases"].append("constructive")
            if err:
                ok = False
                detail["reason"] = err
        if not detail["phases"]:
            return _rec(g, "skip", reason="Gallai tree beyond exhaustive cap")
        return _rec(g, "pass" if ok else "fail", **detail)

    yield from _per_graph(corpus, check)


def _constructive_kp_route(g: Graph) -> Optional[str]:
    """Spanning degree-bounded kernel-perfect witness by extraction plus
    layer-by-layer extension; returns an error string on any failure.

    Each layer H is checked as a certificate with f = d_G, so f_H = d_H."""
    cert = extract_reducible(g, g.degrees)
    while True:
        ok, why = validate_certificate(cert, g, g.degrees)
        if not ok:
            return why
        if len(cert.h_vertices) == g.n:
            return None
        witness = extend_d0_kp(g, cert.h_vertices, cert.digraph)
        h = witness.verts
        hmask = mask_of(h)
        cert = Certificate(h, witness, {v: g.deg_in(v, hmask) for v in h})


def _kp_fixed_pair() -> Iterator[dict]:
    """K4-e: no strict orientation works, and every supergraph witness is
    exactly the doubled two-triangle edge."""
    g = make_named("K4_minus_e")
    strict = is_f_KP(g, g.degrees, allow_supergraph=False)
    yield _rec(g, "pass" if not strict else "fail",
               phase="fixed-pair-strict", strict_witness_exists=bool(strict))
    doubled_edge = (0, 1)  # the edge lying in both triangles
    witnesses = list(f_KP_witnesses(g, g.degrees))
    ok = bool(witnesses) and all(
        set(w.doubled_pairs()) == {doubled_edge} and w.underlying_edges() == g.edges
        for w in witnesses
    )
    yield _rec(g, "pass" if ok else "fail",
               phase="fixed-pair-supergraph", witnesses=len(witnesses),
               all_double_two_triangle_edge=ok)


def _named_in_corpus(corpus: list[Graph], named: dict[str, Graph]) -> dict[Graph, str]:
    """The corpus graphs isomorphic to a named graph, mapped to its name.

    Keys are computed only for corpus graphs with a named graph's degree
    sequence.
    """
    by_degrees: dict[tuple, dict[tuple, str]] = {}
    for name, t in named.items():
        by_degrees.setdefault(tuple(sorted(t.degrees)), {})[canonical_key(t)] = name
    present = {}
    for g in corpus:
        keys = by_degrees.get(tuple(sorted(g.degrees)))
        name = keys.get(canonical_key(g)) if keys else None
        if name is not None:
            present[g] = name
    return present


def _suite_mic_strength(corpus: list[Graph]) -> Iterator[dict]:
    expected_mic = {"C5": 4, "K4": 3}
    tight = _named_in_corpus(corpus, {"C5": make_named("cycle", [5]),
                                      "K4": make_named("complete", [4])})
    seen_tight: dict[str, bool] = {}

    def check(g: Graph) -> dict:
        rec = check_mic_strength(g)
        name = tight.get(g)
        if name is not None:
            seen_tight[name] = (rec.irreducible
                                and rec.mic_value == rec.bound == expected_mic[name])
        return _rec(g, "pass" if rec.holds else "fail",
                    irreducible=rec.irreducible, mic=rec.mic_value, bound=rec.bound)

    yield from _per_graph(corpus, check)
    for name in expected_mic:
        if name not in seen_tight:
            yield {"verdict": "skip", "phase": "tightness", "graph": name,
                   "reason": "expected tight graph not in corpus"}
        else:
            ok = seen_tight[name]
            yield {"verdict": "pass" if ok else "fail",
                   "phase": "tightness", "graph": name, "tight": ok}


GALLAI_COUNT_INSTANCES = 1000


def _suite_gallai_count(corpus, seed: int) -> Iterator[dict]:
    for k in (6, 7, 8):
        if k == 6:
            k5 = make_named("complete", [5])
            chk = gallai_count_check(k5, 6)
            ok = chk.holds and chk.lhs == chk.rhs == 5
            yield _rec(k5, "pass" if ok else "fail", k=6, phase="tight-K5",
                       lhs=str(chk.lhs), rhs=str(chk.rhs))
        for i in range(GALLAI_COUNT_INSTANCES):
            forest = random_gallai_forest(
                tree_count=1 + (i % 3), block_count=3, max_block_size=k - 1,
                rng=random.Random(seed * 100003 + k * 1009 + i), max_degree=k - 1,
            )
            chk = gallai_count_check(forest, k)
            if chk.holds:
                yield _rec(forest, "pass", k=k, index=i)
            else:
                yield _rec(forest, "fail", k=k, index=i,
                           lhs=str(chk.lhs), rhs=str(chk.rhs))


def _suite_triangle_free_mic(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        if min(g.degrees) < 1:
            return _rec(g, "skip", reason="vertex of degree 0")
        if g.has_triangle():
            return _rec(g, "skip", reason="not triangle-free")
        chk = triangle_free_mic_check(g)
        return _rec(g, "pass" if chk.holds else "fail",
                    mic=chk.mic_value, bound=round(chk.bound, 12))

    yield from _per_graph(corpus, check)


def _suite_edges_4critical(corpus: list[Graph]) -> Iterator[dict]:
    # Coverage: every target graph the corpus contains must be checked and pass.
    present = _named_in_corpus(corpus, {"K4": make_named("complete", [4]),
                                        "moser_spindle": make_named("moser_spindle")})
    found: set[str] = set()

    def check(g: Graph) -> dict:
        if max(g.degrees, default=0) > 4:
            return _rec(g, "skip", reason="max degree above 4")
        if not is_k_critical(g, 4):
            return _rec(g, "skip", reason="not 4-critical")
        if not low_high_split(g).high_edgeless:
            return _rec(g, "skip", reason="high-degree part has an edge")
        formula = math.ceil((5 * g.n - 2) / 3)
        if min(g.degrees) == 4:
            # 4-regular graphs sit outside the edge-count argument (it runs
            # through the gap-1 precursor bound and these graphs are not even
            # OC-irreducible); the complement of C7 shows the formula really
            # fails there, so the boundary is recorded, not asserted.
            return _rec(g, "skip",
                        reason="4-regular: outside the gap-1 hypothesis",
                        edges=g.m, formula=formula, n=g.n)
        ok = g.m == formula and g.n % 3 != 0
        if g in present:
            found.add(present[g])
        return _rec(g, "pass" if ok else "fail", edges=g.m, formula=formula, n=g.n)

    yield from _per_graph(corpus, check)
    ok = found == set(present.values())
    yield {"verdict": "pass" if ok else "fail", "phase": "coverage",
           "found": sorted(found)}


def _suite_ore_precursors(corpus: list[Graph]) -> Iterator[dict]:
    def check(g: Graph) -> dict:
        split = low_high_split(g)
        if not split.gap_is_one:
            return _rec(g, "skip", reason="max degree is not min degree + 1")
        if not split.high_edgeless:
            return _rec(g, "skip", reason="high-degree part has an edge")
        if is_oc_reducible(g) is not None:
            return _rec(g, "skip", reason="OC-reducible: lemmas do not apply")
        delta = min(g.degrees)
        nh, nl = len(split.high), len(split.low)
        checks = {
            "mic_below_H_plus_G": mic(g).value < nh + g.n,
            "H_small_vs_L": (delta - 1) * nh < nl,
            "edge_bound": Fraction(2 * g.m) < (delta + Fraction(1, delta)) * g.n,
        }
        detail: dict = {"delta": delta, "high": nh, "low": nl}
        if delta >= 3:
            # The strict sigma bound needs 2/delta - 1 < 0 in its derivation;
            # P3 (delta 1) and K_{2,3} (delta 2) genuinely miss it otherwise.
            checks["sigma_bound"] = sigma(g) < (4 - Fraction(2, delta)) * nh
        else:
            detail["sigma_bound"] = "skipped: bound requires min degree >= 3"
        if delta >= 6 and clique_number(g) <= delta:
            comps = len(g.component_masks(within=mask_of(split.low)))
            bound = Fraction(delta * (delta - 3), (delta - 1) * (delta - 5))
            checks["component_bound"] = Fraction(nh) < bound * comps
        else:
            detail["component_bound"] = "skipped: needs min degree >= 6 at desk scale"
        detail.update({k: bool(v) for k, v in checks.items()})
        return _rec(g, "pass" if all(checks.values()) else "fail", **detail)

    yield from _per_graph(corpus, check)


CUT_LEMMA_SAMPLES = 500


def _suite_cut_lemma(corpus: list[Graph], seed: int) -> Iterator[dict]:
    rng = random.Random(seed)
    pool = [g for g in corpus if 1 <= g.n <= CUT_LEMMA_CAP]
    # a graph the draws cannot take gets _per_graph's skip record: the empty
    # graph, or the size limit cut_lemma_check raises
    yield from _per_graph([g for g in corpus if not 1 <= g.n <= CUT_LEMMA_CAP],
                          lambda g: cut_lemma_check(g, g.degrees, ()))
    if not pool:
        return
    for i in range(CUT_LEMMA_SAMPLES):
        g = pool[rng.randrange(len(pool))]
        f = [rng.randint(1, d + 1) for d in g.degrees]
        h = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        rec = cut_lemma_check(g, f, h)
        yield _rec(g, "pass" if rec.holds else "fail",
                   index=i, f=f, h=h,
                   antecedents=[rec.rest_choosable, rec.part_choosable],
                   conclusion=rec.whole_choosable)


# ---------------------------------------------------------------------------
# Registry and the runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Suite:
    body: Callable[..., Iterator[dict]]  # body(corpus), or body(corpus, seed) if draws
    max_n: int               # per-suite ceiling, mirrors module preconditions
    connected_only: bool = True
    corpus: str = "all"      # "all" | "triangle_free" | "none"
    draws: bool = False      # draws at random, so it takes a seed


_SUITES: dict[str, _Suite] = {
    "brooks-alpha": _Suite(_suite_brooks_alpha, 8),
    "mic-basics": _Suite(_suite_mic_basics, 8),
    "main-lemma-d0": _Suite(_suite_main_lemma_d0, 8),
    "kernel-game": _Suite(_suite_kernel_game, 6),
    "in-orient-oracle": _Suite(_suite_in_orient_oracle, 5, connected_only=False),
    "at-classify": _Suite(_suite_at_classify, 6),
    "kp-classify": _Suite(_suite_kp_classify, 6),
    "mic-strength": _Suite(_suite_mic_strength, 7),
    "gallai-count": _Suite(_suite_gallai_count, 0, corpus="none", draws=True),
    "triangle-free-mic": _Suite(_suite_triangle_free_mic, 9, corpus="triangle_free"),
    "edges-4critical": _Suite(_suite_edges_4critical, 7),
    "ore-precursors": _Suite(_suite_ore_precursors, 7),
    "cut-lemma": _Suite(_suite_cut_lemma, 6, connected_only=False, draws=True),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def _resolve_corpus(spec: Optional[str], suite: _Suite, max_n: Optional[int],
                    allow_large: bool) -> list[Graph]:
    if suite.corpus == "none":
        if spec is not None:
            raise ValueError("this suite reads no corpus, so it takes no source file")
        if max_n is not None:
            raise ValueError("this suite reads no corpus, so it takes no max_n")
        if allow_large:
            raise ValueError("this suite reads no corpus, so it takes no allow_large")
        return []
    if spec is not None and max_n is not None:
        raise ValueError("a graph6 source sets the corpus, so it takes no max_n")
    if spec is not None and allow_large:
        raise ValueError("a graph6 source sets the corpus, so it takes no allow_large")
    n = suite.max_n if max_n is None else max_n
    if n < 1:
        raise ValueError(f"max_n must be at least 1, not {n}")
    if spec is None:
        if n > suite.max_n and not allow_large:
            raise ValueError(
                f"suite ceiling is n = {suite.max_n}; pass allow_large to override"
            )
        if n <= suite.max_n and allow_large:
            raise ValueError(
                f"n = {n} is within the suite ceiling n = {suite.max_n}, "
                "so it takes no allow_large"
            )
        gen = (enumerate_triangle_free if suite.corpus == "triangle_free"
               else enumerate_graphs)
        out: list[Graph] = []
        for k in range(1, n + 1):
            out.extend(gen(k, connected_only=suite.connected_only))
        return out
    graphs = read_graph6_file(spec)
    return _Unscreened(graphs) if suite.connected_only else graphs


def run_suite(
    name: str,
    source: Optional[str] = None,
    max_n: Optional[int] = None,
    seed: int = 0,
    allow_large: bool = False,
    timings: bool = False,
) -> SuiteReport:
    """Run one named suite and return its report.

    ``source`` is a graph6 file path; without one the suite enumerates up to
    ``max_n``, by default its own ceiling, and asking for a larger corpus
    requires ``allow_large``.  ``seed`` drives the suites that draw at
    random, gallai-count and cut-lemma.  ``ValueError`` rejects a ``max_n``
    below 1, a ``max_n`` or ``allow_large`` given with a ``source``,
    ``allow_large`` for a corpus within the ceiling, a suite that reads no
    corpus (gallai-count) given any of the three, and a nonzero ``seed``
    for a suite that draws nothing.  With
    ``timings`` the summary gains ``elapsed_s`` (the whole run) and
    ``corpus_s`` (its corpus construction), and each record ``elapsed_ms``,
    counted from the end of corpus construction.
    """
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    suite = _SUITES[name]
    if seed and not suite.draws:
        raise ValueError("this suite draws nothing at random, so it takes no seed")
    start = time.perf_counter()
    corpus = _resolve_corpus(source, suite, max_n, allow_large)
    report = SuiteReport(suite=name, meta={"seed": seed, "source": source or "enumerate"})
    last = time.perf_counter()
    if timings:
        report.meta["corpus_s"] = round(last - start, 3)
    for rec in suite.body(corpus, seed) if suite.draws else suite.body(corpus):
        now = time.perf_counter()
        if timings:
            # work for a record happens between generator yields
            rec["elapsed_ms"] = round((now - last) * 1000, 3)
        last = now
        report.records.append(rec)
    if timings:
        report.meta["elapsed_s"] = round(time.perf_counter() - start, 3)
    return report
