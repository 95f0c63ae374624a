"""PE-grid schedules for the mapped kernels (compiler backend output).

These are the static per-PE instruction schedules a UniZK compiler
backend emits for the cycle-stepped
:class:`repro.hw.microcode.GridEmulator`:

* :func:`build_matvec` -- the weight-stationary systolic matrix-vector
  product behind every Poseidon MDS multiply (Figure 5a's second
  stage; Section 4's "standard matrix multiplications");
* :func:`build_sbox_pipeline` -- the pipelined ``x^7`` scalar chain of
  the partial round's first PE column (Figure 5b), initiation
  interval 2 (the down link carries the partial and the original ``x``
  in alternate slots);
* :func:`build_reverse_dot` -- the bottom-up dot-product accumulation
  over the reverse links (Figure 5b's ``v`` column);
* :func:`build_vector_mac` -- vector mode: each column as an
  independent vector unit running fused multiply-adds.

Each returns a :class:`BuiltSchedule` (emulator + programs + boundary
feeds, with stationary operands seeded through
:meth:`GridEmulator.preload` so the sanitizer's use-before-def rule is
armed); its docstring says where the results land.  The static-analysis
runner sanitizes every built schedule without executing a cycle
(:mod:`repro.analysis.schedules`), the autotuner vets its candidate
S-box schedules the same way, and the tests execute them against the
reference mathematics.

All schedules are accumulator-clean: chains that start from nothing use
an explicit ``zero`` source rather than reading an undriven latch (the
architectural "reads as zero" default), so the sanitizer's
``sched.latch-use-before-def`` rule holds with no suppressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..field import goldilocks as gl
from ..hw.microcode import (
    IN_BOTTOM,
    IN_LEFT,
    IN_TOP,
    NOP,
    ZERO,
    GridEmulator,
    Instr,
    imm,
    reg,
)

Programs = Dict[Tuple[int, int], list]


@dataclass
class BuiltSchedule:
    """A schedule ready to execute (or to sanitize without executing)."""

    name: str
    emu: GridEmulator
    programs: Programs
    left_inputs: Dict[int, List[int]] = field(default_factory=dict)
    top_inputs: Dict[int, List[int]] = field(default_factory=dict)
    num_cycles: int = 0

    def run(self) -> int:
        """Execute on the grid; returns cycles run."""
        return self.emu.run(
            self.programs,
            left_inputs=self.left_inputs,
            top_inputs=self.top_inputs,
            num_cycles=self.num_cycles,
        )


def _pad(program: list, start: int) -> list:
    """Prefix a per-cycle program with idle cycles."""
    return [NOP] * start + program


# ---------------------------------------------------------------------------
# Weight-stationary systolic matvec
# ---------------------------------------------------------------------------


def build_matvec(weights: np.ndarray, states: np.ndarray) -> BuiltSchedule:
    """Stream row-vector x matrix products through an ``n x n`` grid.

    PE ``(i, j)`` holds ``W[i][j]`` stationary in register 0; state
    element ``i`` of state ``s`` enters row ``i`` at cycle ``s + i``
    (the classic input skew).  Each active PE fires one
    ``mac(in_left, W, acc)`` down its column and forwards the state
    element right -- exactly one multiplier and one adder-slot per
    cycle.  Column ``j`` finishes state ``s`` at the bottom row on
    cycle ``s + (n - 1) + j``, into register ``1 + s`` of PE
    ``(n - 1, j)``: ``out[s][j] = sum_i states[s][i] * W[i][j]``.
    """
    n = weights.shape[0]
    t_count = states.shape[0]
    emu = GridEmulator(rows=n, cols=n, register_words=max(64, t_count + 2))
    for i in range(n):
        for j in range(n):
            emu.preload((i, j), 0, int(weights[i, j]))
    total = t_count + 2 * n + 1
    programs: Programs = {}
    for i in range(n):
        for j in range(n):
            prog = []
            # Row 0 starts each column's accumulation from an explicit
            # zero; rows below chain on the partial arriving from above.
            acc = ZERO if i == 0 else IN_TOP
            for cycle in range(total):
                s = cycle - i - j
                if 0 <= s < t_count:
                    compute = Instr(
                        "mac",
                        IN_LEFT,
                        reg(0),
                        acc,
                        dst_reg=(1 + s) if i == n - 1 else None,
                        out_down=True,
                    )
                    prog.append((compute, Instr("mov", IN_LEFT, out_right=True)))
                else:
                    prog.append(NOP)
            programs[(i, j)] = prog
    feeds = {
        i: [0] * i + [int(states[s, i]) for s in range(t_count)] for i in range(n)
    }
    return BuiltSchedule(
        name="matvec",
        emu=emu,
        programs=programs,
        left_inputs=feeds,
        num_cycles=total,
    )


# ---------------------------------------------------------------------------
# S-box pipeline (partial round, first PE column of Figure 5b)
# ---------------------------------------------------------------------------


def build_sbox_pipeline(
    values: List[int], post_constant: int = 0, ii: int = 2
) -> BuiltSchedule:
    """Pipelined ``x^7 + post_constant`` on a 5-PE column.

    Chain: ``a = x^2``, ``b = a*x``, ``c = b^2``, ``t = c*x``,
    ``t + const`` -- four multiplies plus a constant add, one PE each
    (the paper's "row of 4 PEs" plus the fused constant adder).  The
    output for ``values[s]`` lands in register ``10 + s`` of PE
    ``(4, 0)``.

    ``ii`` is the initiation interval between consecutive elements.  The
    single down link per PE carries two values per element (the running
    partial and the original ``x`` needed again at stages 2 and 4), so
    the shipped schedule runs at ``ii=2``: the even slot of element
    ``s`` at row ``r`` (cycle ``2s + r``) transports/stashes ``x``, the
    odd slot (cycle ``2s + r + 1``) computes.  ``ii=1`` is the
    candidate the autotuner enumerates for the ``sparse-12x3-ii1``
    round scheme: element ``s``'s compute cycle then coincides with
    element ``s+1``'s transport cycle, and both drive the down latch --
    a genuine ``sched.latch-double-drive`` hazard the sanitizer rejects
    before the candidate ever reaches the simulator.
    """
    if ii < 1:
        raise ValueError("initiation interval must be >= 1")
    t_count = len(values)
    rows = 5
    emu = GridEmulator(rows=rows, cols=1, register_words=max(64, t_count + 12))
    total = ii * t_count + rows + 2
    programs: Programs = {}

    computes = {
        0: Instr("mul", reg(2), reg(2), out_down=True),  # a = x^2
        1: Instr("mul", IN_TOP, reg(2), out_down=True),  # b = a * x
        2: Instr("mul", IN_TOP, IN_TOP, out_down=True),  # c = b^2
        3: Instr("mul", IN_TOP, reg(2), out_down=True),  # t = c * x
    }
    for r in range(4):
        slots: Dict[int, List[Instr]] = {}
        for s in range(t_count):
            transport_cycle = ii * s + r
            compute_cycle = transport_cycle + 1
            slots.setdefault(transport_cycle, []).extend(
                [
                    Instr("mov", IN_TOP, out_down=True),  # forward x downward
                    Instr("mov", IN_TOP, dst_reg=2),  # stash x locally
                ]
            )
            slots.setdefault(compute_cycle, []).append(computes[r])
        prog = [NOP] * total
        for cycle, ops in slots.items():
            prog[cycle] = ops[0] if len(ops) == 1 else tuple(ops)
        programs[(r, 0)] = prog
    # Row 4: the partial arrives on cycle ii*s + 5; add the constant.
    prog4 = [NOP] * total
    for s in range(t_count):
        prog4[ii * s + 5] = Instr("add", IN_TOP, imm(post_constant), dst_reg=10 + s)
    programs[(4, 0)] = prog4

    # Feed x_s at the top on cycle ii*s (row 0's transport slot).
    feed = [0] * total
    for s, v in enumerate(values):
        feed[ii * s] = gl.canonical(int(v))
    return BuiltSchedule(
        name="sbox_pipeline" if ii == 2 else f"sbox_pipeline_ii{ii}",
        emu=emu,
        programs=programs,
        top_inputs={0: feed},
        num_cycles=total,
    )


# ---------------------------------------------------------------------------
# Reverse-link dot-product accumulation (Figure 5b's `v` column)
# ---------------------------------------------------------------------------


def build_reverse_dot(state: List[int], coeffs: List[int]) -> BuiltSchedule:
    """Accumulate ``sum_r state[r] * coeffs[r]`` bottom-up via up links.

    Row ``r`` holds ``coeffs[r]`` in register 0 and ``state[r]`` in
    register 1; starting from the bottom row, each PE fires one
    ``mac(state, coeff, acc)`` upward; the total exits at the top
    boundary (the last entry of ``emu.top_outputs``) after ``n``
    cycles.
    """
    n = len(state)
    emu = GridEmulator(rows=n, cols=1, reverse_link_cols=(0,))
    for r in range(n):
        emu.preload((r, 0), 0, int(coeffs[r]))
        emu.preload((r, 0), 1, int(state[r]))
    programs: Programs = {}
    for r in range(n):
        fire_cycle = n - 1 - r  # bottom row first
        # The bottom row starts the accumulation from an explicit zero;
        # rows above chain on the partial arriving over the up link.
        acc = ZERO if r == n - 1 else IN_BOTTOM
        programs[(r, 0)] = _pad(
            [Instr("mac", reg(1), reg(0), acc, out_up=True)], fire_cycle
        )
    return BuiltSchedule(
        name="reverse_dot", emu=emu, programs=programs, num_cycles=n + 1
    )


# ---------------------------------------------------------------------------
# Vector mode: one column as a vector unit
# ---------------------------------------------------------------------------


def build_vector_mac(
    xs: List[int], ys: List[int], zs: List[int]
) -> BuiltSchedule:
    """Element-wise ``x*y + z`` across a 12-PE column in vector mode.

    Elements strip-mine across rows (element ``e`` to lane ``e % 12``);
    each lane streams its operands from the left boundary over three
    cycles (x, y, z) and fires a fused ``mac`` on the third -- the
    chained-operation pattern of Section 5.4.  The ``k``-th element of
    lane ``r`` lands in register ``10 + k`` of PE ``(r, 0)``.
    """
    n = len(xs)
    if not (len(ys) == len(zs) == n):
        raise ValueError("operand vectors must have equal length")
    rows = 12
    per_lane = -(-n // rows) if n else 0
    emu = GridEmulator(rows=rows, cols=1, register_words=max(64, per_lane + 12))
    programs: Programs = {}
    feeds: Dict[int, List[int]] = {}
    for r in range(rows):
        lane_elems = [e for e in range(n) if e % rows == r]
        prog = []
        stream: List[int] = []
        for k, e in enumerate(lane_elems):
            stream.extend([int(xs[e]), int(ys[e]), int(zs[e])])
            prog.append(Instr("mov", IN_LEFT, dst_reg=0))
            prog.append(Instr("mov", IN_LEFT, dst_reg=1))
            prog.append(Instr("mac", reg(0), reg(1), IN_LEFT, dst_reg=10 + k))
        if prog:
            programs[(r, 0)] = prog
            feeds[r] = stream
    total = max((len(p) for p in programs.values()), default=0)
    return BuiltSchedule(
        name="vector_mac",
        emu=emu,
        programs=programs,
        left_inputs=feeds,
        num_cycles=total,
    )
