"""Cycle-stepped micro-coded PE-grid emulator.

The mapping strategies of Section 5 ultimately compile to *static
per-PE schedules*: every cycle, each PE reads its neighbour latches,
fires at most one multiply and one add/sub, and drives its own output
latches.  This module implements that machine faithfully enough to
execute real kernel schedules at PE granularity -- it is the
reproduction's stand-in for the paper's RTL validation: the grid
schedules (:mod:`repro.mapping.microcode_schedules`) are executed
against reference maths in the tests and sanitized without executing
by :mod:`repro.analysis.schedules`.

Machine model
-------------

* a ``rows x cols`` grid of PEs;
* links: every PE drives ``right`` and ``down`` latches (classic
  systolic), and PEs in designated columns additionally drive an ``up``
  latch (the paper's reverse links);
* per-cycle, per-PE: one instruction, reading up to two operands from
  {register file, incoming latches, immediate} and writing the result
  to the register file and/or one or more outgoing latches;
* latch discipline: reads observe the value written in the *previous*
  cycle (single-cycle link latency), which is what makes wavefront
  skews real.

Programs are dictionaries ``(row, col) -> [ops per cycle]`` where each
cycle entry is one :class:`Instr` or a tuple of them; shorter programs
idle afterwards.  Per cycle a PE may fire at most one multiplier
instruction (``mul``/``mac``) and two adder instructions
(``add``/``sub``/``mov``) -- the PE's real functional units -- and each
outgoing latch may be driven by at most one instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..field import goldilocks as gl

#: Operand sources.
SRC_KINDS = ("reg", "in_left", "in_top", "in_bottom", "imm", "zero")
#: Instruction opcodes.  ``mac`` is the PE's chained multiply-add
#: (``a * b + c``), using the multiplier and one adder in the same cycle
#: (paper Section 5.4: "chained operations to reduce register access
#: pressure").
OPCODES = ("mul", "add", "sub", "mov", "mac", "nop")


@dataclass(frozen=True)
class Src:
    """An operand source."""

    kind: str
    value: int = 0  # register index or immediate

    def __post_init__(self) -> None:
        if self.kind not in SRC_KINDS:
            raise ValueError(f"bad source kind {self.kind!r}")


def reg(i: int) -> Src:
    """Register-file operand."""
    return Src("reg", i)


def imm(v: int) -> Src:
    """Immediate operand."""
    return Src("imm", gl.canonical(v))


IN_LEFT = Src("in_left")
IN_TOP = Src("in_top")
IN_BOTTOM = Src("in_bottom")
ZERO = Src("zero")


@dataclass(frozen=True)
class Instr:
    """One PE instruction for one cycle."""

    op: str
    a: Src = ZERO
    b: Src = ZERO
    #: third operand, used by ``mac`` only
    c: Src = ZERO
    #: destination register (None = don't write the register file)
    dst_reg: Optional[int] = None
    #: outgoing latches to drive with the result
    out_right: bool = False
    out_down: bool = False
    out_up: bool = False

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"bad opcode {self.op!r}")


NOP = Instr("nop")

#: Multiplier-using opcodes (at most one per PE per cycle).
_MUL_OPS = ("mul", "mac")
#: Adder-slot opcodes (at most two per PE per cycle; mov uses a bypass).
_ADD_OPS = ("add", "sub", "mov")


class ScheduleError(ValueError):
    """A schedule failed static validation at program load.

    Carries the :class:`repro.analysis.findings.Finding` records of the
    sanitizer; the message lists each with its rule id.
    """

    def __init__(self, findings) -> None:
        self.findings = list(findings)
        lines = [f.format() for f in self.findings]
        super().__init__(
            "schedule failed static validation "
            f"({len(lines)} finding{'s' if len(lines) != 1 else ''}):\n  "
            + "\n  ".join(lines)
        )


def _normalise_cycle(entry) -> tuple:
    """One cycle's program entry as a tuple of instructions."""
    return entry if isinstance(entry, tuple) else (entry,)


class GridEmulator:
    """Execute static per-PE programs cycle by cycle.

    Every program handed to :meth:`run` is first passed through the
    schedule sanitizer (:mod:`repro.analysis.sanitizer`); hazards raise
    a :class:`ScheduleError` naming the violated rule ids before any
    cycle executes.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        reverse_link_cols: Sequence[int] = (),
        register_words: int = 64,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.reverse_link_cols = set(reverse_link_cols)
        self.register_words = register_words
        self.reset()

    def reset(self) -> None:
        """Clear registers, latches, and traces."""
        self.regs: Dict[Tuple[int, int], List[int]] = {
            (r, c): [0] * self.register_words
            for r in range(self.rows)
            for c in range(self.cols)
        }
        # Latches currently visible to consumers.
        self._right: Dict[Tuple[int, int], int] = {}
        self._down: Dict[Tuple[int, int], int] = {}
        self._up: Dict[Tuple[int, int], int] = {}
        #: stream of values that left the grid at the right boundary:
        #: (cycle, row, value)
        self.right_outputs: List[Tuple[int, int, int]] = []
        #: values that left at the top boundary via reverse links
        self.top_outputs: List[Tuple[int, int, int]] = []
        self.cycles_run = 0
        self.mul_count = 0
        self.add_count = 0
        #: ``((row, col), reg_index)`` pairs seeded via :meth:`preload`;
        #: the sanitizer's use-before-def rule keys off this set.
        self.preloaded_regs: set = set()

    def preload(self, pos: Tuple[int, int], idx: int, value: int) -> None:
        """Seed a register before cycle 0 (e.g. stationary weights).

        Unlike poking ``self.regs`` directly, this records the register
        as *defined*, which arms the sanitizer's
        ``sched.reg-use-before-def`` rule for subsequent :meth:`run`
        calls: any register read the schedule performs must then be
        covered by a preload or an earlier in-program write.
        """
        self.regs[pos][idx] = gl.canonical(value)
        self.preloaded_regs.add((pos, idx))

    # -- execution ------------------------------------------------------------

    def run(
        self,
        programs: Dict[Tuple[int, int], List[Instr]],
        left_inputs: Optional[Dict[int, List[int]]] = None,
        top_inputs: Optional[Dict[int, List[int]]] = None,
        num_cycles: Optional[int] = None,
    ) -> int:
        """Run until every program (and input stream) is exhausted.

        ``left_inputs[row]`` feeds column 0's ``in_left`` latch;
        ``top_inputs[col]`` feeds row 0's ``in_top`` latch -- both model
        the scratchpad driving the array boundary, one value per cycle.
        Returns cycles executed.
        """
        left_inputs = left_inputs or {}
        top_inputs = top_inputs or {}
        # Late import: repro.analysis.sanitizer imports this module.
        from ..analysis.sanitizer import sanitize, spec_for_emulator

        spec = spec_for_emulator(self, programs, left_inputs, top_inputs, num_cycles)
        findings = sanitize(spec)
        if findings:
            raise ScheduleError(findings)
        horizon = spec.horizon()
        for cycle in range(horizon):
            self._step(programs, left_inputs, top_inputs, cycle)
        self.cycles_run += horizon
        return horizon

    def _read(
        self,
        pos: Tuple[int, int],
        src: Src,
        left_in: Optional[int],
        top_in: Optional[int],
    ) -> int:
        r, c = pos
        if src.kind == "zero":
            return 0
        if src.kind == "imm":
            return src.value
        if src.kind == "reg":
            return self.regs[pos][src.value]
        if src.kind == "in_left":
            if c == 0:
                return left_in if left_in is not None else 0
            return self._right.get((r, c - 1), 0)
        if src.kind == "in_top":
            if r == 0:
                return top_in if top_in is not None else 0
            return self._down.get((r - 1, c), 0)
        if src.kind == "in_bottom":
            return self._up.get((r + 1, c), 0) if r + 1 < self.rows else 0
        raise AssertionError(src.kind)

    def _step(
        self,
        programs: Dict[Tuple[int, int], List[Instr]],
        left_inputs: Dict[int, List[int]],
        top_inputs: Dict[int, List[int]],
        cycle: int,
    ) -> None:
        new_right: Dict[Tuple[int, int], int] = {}
        new_down: Dict[Tuple[int, int], int] = {}
        new_up: Dict[Tuple[int, int], int] = {}
        writes: List[Tuple[Tuple[int, int], int, int]] = []
        for pos, program in programs.items():
            if cycle >= len(program):
                continue
            ops = _normalise_cycle(program[cycle])
            r, c = pos
            left_stream = left_inputs.get(r)
            left_val = None
            if left_stream is not None and c == 0 and cycle < len(left_stream):
                left_val = left_stream[cycle]
            top_stream = top_inputs.get(c)
            top_val = None
            if top_stream is not None and r == 0 and cycle < len(top_stream):
                top_val = top_stream[cycle]
            for instr in ops:
                if instr.op == "nop":
                    continue
                a = self._read(pos, instr.a, left_val, top_val)
                b = self._read(pos, instr.b, left_val, top_val)
                if instr.op == "mul":
                    result = gl.mul(a, b)
                    self.mul_count += 1
                elif instr.op == "add":
                    result = gl.add(a, b)
                    self.add_count += 1
                elif instr.op == "sub":
                    result = gl.sub(a, b)
                    self.add_count += 1
                elif instr.op == "mac":
                    cc = self._read(pos, instr.c, left_val, top_val)
                    result = gl.add(gl.mul(a, b), cc)
                    self.mul_count += 1
                    self.add_count += 1
                else:  # mov
                    result = a
                if instr.dst_reg is not None:
                    writes.append((pos, instr.dst_reg, result))
                if instr.out_right:
                    if c + 1 == self.cols:
                        self.right_outputs.append((cycle, r, result))
                    else:
                        new_right[pos] = result
                if instr.out_down:
                    new_down[pos] = result
                if instr.out_up:
                    if r == 0:
                        self.top_outputs.append((cycle, c, result))
                    else:
                        new_up[pos] = result
        for pos, idx, val in writes:
            self.regs[pos][idx] = val
        # Latches update after every PE has read the old values.
        self._right = new_right
        self._down = new_down
        self._up = new_up
