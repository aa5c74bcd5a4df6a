"""kernelpaint: exact small-graph machinery for kernel-based list coloring.

The pipeline this package makes executable: a large independent set yields an
in-degree-constrained orientation, the orientation yields a kernel-perfect
digraph with bounded out-degrees, and that digraph is a winning strategy for
the online list-coloring (painting) game.  Everything is verified at desk
scale against exhaustive oracles.
"""

from .errors import (
    ConstructionError,
    FormatError,
    HypothesisNotMetError,
    KernelPaintError,
    SizeLimitError,
    UndefinedStatisticError,
)
from .graph6 import encode_graph6, parse_graph6, read_graph6_file, write_graph6_file
from .graphs import (
    BlockTree,
    Graph,
    GraphStats,
    block_decomposition,
    canonical_key,
    cut_size,
    enumerate_graphs,
    enumerate_triangle_free,
    graph_stats,
    make_named,
    ore_degree,
    to_dot,
)
from .harness import SUITE_NAMES, SuiteReport, run_suite, validate_certificate
from .orient import (
    ATCount,
    Digraph,
    OrientationResult,
    alon_tarsi_diff,
    digraph_to_dot,
    extend_d0_kp,
    f_KP_witnesses,
    find_kernel,
    is_f_AT,
    is_f_KP,
    is_kernel_perfect,
    orient_with_indegrees,
)
from .reduce import (
    Certificate,
    check_mic_strength,
    cut_lemma_check,
    extract_reducible,
    is_oc_reducible,
)
from .structure import (
    LowHighSplit,
    MicResult,
    beta_t,
    find_even_cycle_one_chord,
    gallai_count_check,
    is_gallai_forest,
    is_gallai_tree,
    low_high_split,
    mic,
    random_gallai_forest,
    random_gallai_tree,
    sigma,
    triangle_free_mic_check,
)
from .verify import (
    PaintabilitySolver,
    chromatic_number,
    is_f_choosable,
    is_k_critical,
    is_online_f_choosable,
    make_kernel_painter,
    play_paint_game,
)

__version__ = "0.1.0"
