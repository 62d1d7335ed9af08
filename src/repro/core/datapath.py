"""Gate-level model of the element datapath (figure 6) and the array
floorplan (figures 8/9).

Figure 6 draws the per-cycle combinational path of one processing
element: base comparison selecting ``Co``/``Su``, the diagonal adder,
the ``B``/``C`` comparator feeding the ``In/Re`` adder, the two-way
maximum, the zero clamp, and the best-score comparator writing ``Bs``
/``Bc``.  This module builds that datapath as an explicit DAG
(networkx) with per-node gate delays and per-edge routing delays, and
derives:

* the **critical path** and a first-principles ``f_max`` estimate —
  checked against the ISE-reported 144.9 MHz (they agree within the
  routing-model slop, which is the point: the paper's clock is what
  this datapath should run at);
* **resource counts** (LUTs/FFs) of a hand-mapped element — compared
  with the Table-2-calibrated coefficients of
  :mod:`repro.core.resources` to quantify the overhead of the paper's
  Forte high-level-synthesis flow;
* a **structural netlist summary** of the full design (array + global
  controller), the textual stand-in for the floorplan screenshots of
  figures 8 and 9.

Delay and area constants are generic Virtex-II-Pro-class figures
(about 0.4 ns register clock-to-out, ~1 ns for a 16-bit ripple
compare/add with dedicated carry, 0.35 ns average route); they are
deliberately round — the model's job is structure, not timing closure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GateSpec",
    "build_pe_datapath",
    "critical_path",
    "fmax_mhz",
    "pe_resource_counts",
    "netlist_summary",
    "SCORE_WIDTH",
    "BASE_WIDTH",
    "CYCLE_WIDTH",
]

#: Score register width.  The paper's scheme (+1/-1/-2) on a 10 MBP
#: stream never exceeds the query length x match score, so 16 bits
#: hold any score up to a 32 KBP chunk; SAMBA used 12 bits (section 4).
SCORE_WIDTH = 16
#: DNA base encoding width (A/C/G/T).
BASE_WIDTH = 2
#: Cycle counter width — must count to n + N - 1; 32 bits covers the
#: paper's 10 MBP stream with headroom.
CYCLE_WIDTH = 32


@dataclass(frozen=True)
class GateSpec:
    """One datapath node: its kind, bit width, delay and area."""

    kind: str  # 'reg', 'cmp', 'add', 'mux', 'max', 'clamp', 'in', 'out'
    width: int
    delay_ns: float
    luts: int
    ffs: int


#: Per-kind delay (ns) and area (LUTs per bit / FFs per bit) recipes.
_RECIPES = {
    "reg": (0.4, 0.0, 1.0),  # clock-to-out; area is FFs
    "in": (0.0, 0.0, 0.0),  # port
    "cmp": (1.0, 1.0, 0.0),  # carry-chain comparator
    "add": (1.0, 1.0, 0.0),  # carry-chain adder
    "mux": (0.3, 0.5, 0.0),  # 2:1 mux folds into LUTs
    "max": (1.3, 1.5, 0.0),  # compare + select
    "clamp": (0.3, 0.5, 0.0),  # max(x, 0): sign test + mux
    "out": (0.4, 0.0, 1.0),  # output register (setup folded in)
}

#: Average routing delay charged per edge (ns).
ROUTE_NS = 0.33


def _gate(kind: str, width: int) -> GateSpec:
    delay, luts_per_bit, ffs_per_bit = _RECIPES[kind]
    return GateSpec(
        kind=kind,
        width=width,
        delay_ns=delay,
        luts=round(luts_per_bit * width),
        ffs=round(ffs_per_bit * width),
    )


def build_pe_datapath() -> nx.DiGraph:
    """The figure-6 datapath as a DAG.

    Node attributes carry the :class:`GateSpec`; edges are wires (each
    charged :data:`ROUTE_NS`).  The graph covers one clock cycle: from
    the registered state (``A``, ``B``, ``Bs``, ``Cl``) and the
    incoming wires (``C``, ``SB``) to the next-state registers.
    """
    import networkx as nx  # only the figure-6 model needs networkx
    g = nx.DiGraph()

    def add(name: str, kind: str, width: int) -> None:
        g.add_node(name, spec=_gate(kind, width))

    # State registers and inputs.
    add("SP", "reg", BASE_WIDTH)  # query base
    add("SB_in", "in", BASE_WIDTH)  # database base from the left
    add("A", "reg", SCORE_WIDTH)  # diagonal score
    add("B", "reg", SCORE_WIDTH)  # own previous score
    add("C_in", "in", SCORE_WIDTH)  # left neighbour score
    add("Bs", "reg", SCORE_WIDTH)  # lane best
    add("Cl", "reg", CYCLE_WIDTH)  # cycle counter
    # Combinational stages (left to right in figure 6).
    add("base_eq", "cmp", BASE_WIDTH)  # SP == SB ?
    add("co_su_mux", "mux", SCORE_WIDTH)  # select Co or Su
    add("diag_add", "add", SCORE_WIDTH)  # A + Co/Su
    add("bc_max", "max", SCORE_WIDTH)  # max(B, C)
    add("gap_add", "add", SCORE_WIDTH)  # + In/Re
    add("d_max", "max", SCORE_WIDTH)  # max(diag, gap)
    add("zero_clamp", "clamp", SCORE_WIDTH)  # max(., 0) -> D
    add("best_cmp", "cmp", SCORE_WIDTH)  # D > Bs ?
    # Next-state registers / outputs to the right neighbour.
    add("D_out", "out", SCORE_WIDTH)  # -> right C_in, and B := D
    add("SB_out", "out", BASE_WIDTH)  # base pipeline register
    add("A_next", "out", SCORE_WIDTH)  # A := C
    add("Bs_next", "out", SCORE_WIDTH)  # Bs := D (when enabled)
    add("Bc_next", "out", CYCLE_WIDTH)  # Bc := Cl (when enabled)

    edges = [
        ("SP", "base_eq"),
        ("SB_in", "base_eq"),
        ("base_eq", "co_su_mux"),
        ("co_su_mux", "diag_add"),
        ("A", "diag_add"),
        ("B", "bc_max"),
        ("C_in", "bc_max"),
        ("bc_max", "gap_add"),
        ("diag_add", "d_max"),
        ("gap_add", "d_max"),
        ("d_max", "zero_clamp"),
        ("zero_clamp", "best_cmp"),
        ("Bs", "best_cmp"),
        ("zero_clamp", "D_out"),
        ("SB_in", "SB_out"),
        ("C_in", "A_next"),
        ("zero_clamp", "Bs_next"),
        ("best_cmp", "Bs_next"),  # write enable
        ("Cl", "Bc_next"),
        ("best_cmp", "Bc_next"),  # write enable
    ]
    g.add_edges_from(edges)
    return g


def critical_path(g: nx.DiGraph | None = None) -> tuple[list[str], float]:
    """Longest register-to-register path and its delay in ns.

    Delay = sum of node delays on the path + one :data:`ROUTE_NS` per
    edge traversed.
    """
    import networkx as nx
    if g is None:
        g = build_pe_datapath()
    best_path: list[str] = []
    best_delay = 0.0
    # The graph is tiny; enumerate all simple source->sink paths.
    sources = [n for n in g if g.in_degree(n) == 0]
    sinks = [n for n in g if g.out_degree(n) == 0]
    for src in sources:
        for dst in sinks:
            for path in nx.all_simple_paths(g, src, dst):
                delay = sum(g.nodes[n]["spec"].delay_ns for n in path)
                delay += ROUTE_NS * (len(path) - 1)
                if delay > best_delay:
                    best_delay = delay
                    best_path = path
    return best_path, best_delay


def fmax_mhz(g: nx.DiGraph | None = None) -> float:
    """First-principles maximum clock of the element datapath."""
    _, delay = critical_path(g)
    return 1e3 / delay


def pe_resource_counts(g: nx.DiGraph | None = None) -> dict[str, int]:
    """Hand-mapped LUT/FF counts of one element.

    The Table-2-calibrated model charges ~424 LUTs / 160 FFs per
    element; the hand-mapped figure here is substantially lower — the
    difference is the measured overhead of the Forte HLS flow (a test
    keeps the ratio in a sane band so the two models cannot drift
    apart silently).
    """
    if g is None:
        g = build_pe_datapath()
    luts = sum(g.nodes[n]["spec"].luts for n in g)
    ffs = sum(g.nodes[n]["spec"].ffs for n in g)
    # Bc register is CYCLE_WIDTH wide but lives in Bc_next's FFs;
    # control FSM overhead: ~10% of LUTs, at least 8.
    control = max(8, luts // 10)
    return {"luts": luts + control, "ffs": ffs, "control_luts": control}


def netlist_summary(n_elements: int = 100) -> str:
    """Structural summary of the full design (figures 8 and 9).

    The left part (figure 8) is the replicated element array; the
    right part (figure 9) the global controller: the readout chain,
    the global best comparator, and the coordinate recovery logic.
    """
    g = build_pe_datapath()
    counts = pe_resource_counts(g)
    path, delay = critical_path(g)
    lines = [
        f"design: sw-locate array, {n_elements} elements",
        "",
        "left part (figure 8) — element array:",
        f"  element instances : {n_elements}",
        f"  gates per element : {g.number_of_nodes()} nodes, {g.number_of_edges()} nets",
        f"  area per element  : ~{counts['luts']} LUTs, {counts['ffs']} FFs (hand-mapped)",
        f"  critical path     : {' -> '.join(path)}",
        f"  path delay        : {delay:.2f} ns  (f_max ~ {1e3 / delay:.1f} MHz)",
        "",
        "right part (figure 9) — global controller:",
        "  per-lane readout chain (Bs, Bc shifted out after each pass)",
        "  global best comparator: (score, -row, -column) lexicographic",
        "  coordinate recovery: j = Bc - k + 1 (+ segment offset)",
        "  host interface: 12-byte result register, PCI endpoint",
    ]
    return "\n".join(lines)
