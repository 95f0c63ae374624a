"""Layer 1: static sanitizer for PE-grid microcode schedules.

The compiler backend emits *static* per-PE schedules, so every hazard
is decidable before a single emulated cycle.  Given a
:class:`ScheduleSpec` (grid shape + programs + boundary feeds +
preloaded registers), :func:`sanitize` verifies

structural invariants, per PE per cycle:

* at most one multiplier op (``mul``/``mac``) -- ``sched.mul-overcommit``;
* at most two adder-slot ops (``add``/``sub``/``mov``) --
  ``sched.add-overcommit``;
* each outgoing latch driven at most once -- ``sched.latch-double-drive``;
* register-file indices in bounds -- ``sched.reg-oob``;
* ``up`` latches driven only in designated reverse-link columns --
  ``sched.reverse-link``;
* programs inside the grid -- ``sched.pe-oob``;

and dataflow invariants, via an abstract wavefront walk that mirrors
the emulator's timing (register writes commit at end of cycle, latch
values are visible exactly one cycle after being driven):

* no read of a register that was neither preloaded nor written by an
  earlier cycle -- ``sched.reg-use-before-def``;
* no read of an incoming latch that the upstream PE did not drive in
  the previous cycle, and no boundary read beyond the declared input
  feed -- ``sched.latch-use-before-def``.  Schedules that want the
  architectural "undriven latch reads as zero" must say so with an
  explicit ``zero`` source.

:class:`repro.hw.microcode.GridEmulator` runs these checks at every
program load, so a bad schedule fails up front with the rule id instead
of silently misexecuting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..hw import microcode as mc
from .findings import SCHEDULE_RULES, Finding, check_rule_ids

Coord = Tuple[int, int]


@dataclass
class ScheduleSpec:
    """Everything the sanitizer needs to know about one schedule.

    ``left_feeds[row]`` / ``top_feeds[col]`` give the number of cycles
    the boundary stream covers (a prefix; reads past it are undefined).
    ``preloaded_regs`` lists ``((row, col), reg_index)`` pairs seeded
    before cycle 0; ``None`` means the register file's reset state is
    part of the contract (every register reads as a defined zero), which
    disables ``sched.reg-use-before-def``.
    """

    name: str
    rows: int
    cols: int
    programs: Mapping[Coord, Sequence]
    reverse_link_cols: frozenset = frozenset()
    register_words: int = 64
    left_feeds: Mapping[int, int] = field(default_factory=dict)
    top_feeds: Mapping[int, int] = field(default_factory=dict)
    preloaded_regs: Optional[Set[Tuple[Coord, int]]] = None
    num_cycles: Optional[int] = None

    def horizon(self) -> int:
        """Cycles ``GridEmulator.run`` executes."""
        if self.num_cycles is not None:
            return self.num_cycles
        return max(
            [len(p) for p in self.programs.values()]
            + [n for n in self.left_feeds.values()]
            + [n for n in self.top_feeds.values()]
            + [1]
        )


def spec_for_emulator(
    emu,
    programs: Mapping[Coord, Sequence],
    left_inputs: Optional[Mapping[int, Sequence]] = None,
    top_inputs: Optional[Mapping[int, Sequence]] = None,
    num_cycles: Optional[int] = None,
    name: str = "<run>",
) -> ScheduleSpec:
    """Build a :class:`ScheduleSpec` for a ``GridEmulator.run`` call.

    Preloaded registers are taken from :meth:`GridEmulator.preload`
    bookkeeping; an emulator whose registers were never preloaded keeps
    ``preloaded_regs=None`` (reset zeroes are defined), so direct
    ``emu.regs`` pokes never cause spurious use-before-def findings.
    """
    preloaded = getattr(emu, "preloaded_regs", None)
    return ScheduleSpec(
        name=name,
        rows=emu.rows,
        cols=emu.cols,
        programs=programs,
        reverse_link_cols=frozenset(emu.reverse_link_cols),
        register_words=emu.register_words,
        left_feeds={r: len(s) for r, s in (left_inputs or {}).items()},
        top_feeds={c: len(s) for c, s in (top_inputs or {}).items()},
        preloaded_regs=set(preloaded) if preloaded else None,
        num_cycles=num_cycles,
    )


_LATCHES = ("out_right", "out_down", "out_up")


def sanitize(
    spec: ScheduleSpec, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Statically verify one schedule; return all findings.

    ``rules`` restricts the check to a subset of ``sched.*`` rule ids
    (default: all of them).
    """
    if rules is None:
        enabled = set(SCHEDULE_RULES)
    else:
        check_rule_ids(rules)
        enabled = set(rules)
    findings: List[Finding] = []

    def report(rule: str, pe: Optional[Coord], cycle: Optional[int], msg: str) -> None:
        if rule in enabled:
            findings.append(
                Finding(rule=rule, message=msg, schedule=spec.name, pe=pe, cycle=cycle)
            )

    in_grid: Dict[Coord, Sequence] = {}
    for pos, program in spec.programs.items():
        r, c = pos
        if 0 <= r < spec.rows and 0 <= c < spec.cols:
            in_grid[pos] = program
        else:
            report(
                "sched.pe-oob",
                pos,
                None,
                f"program assigned outside the {spec.rows}x{spec.cols} grid",
            )

    horizon = spec.horizon()
    # Dataflow state for the abstract wavefront walk.
    defined_regs: Dict[Coord, Set[int]] = {pos: set() for pos in in_grid}
    if spec.preloaded_regs is not None:
        for pos, idx in spec.preloaded_regs:
            if pos in defined_regs:
                defined_regs[pos].add(idx)
    check_regs = spec.preloaded_regs is not None
    driven_prev: Dict[str, Set[Coord]] = {l: set() for l in _LATCHES}

    def check_read(pos: Coord, cycle: int, src: mc.Src) -> None:
        r, c = pos
        if src.kind == "reg":
            if not (0 <= src.value < spec.register_words):
                report(
                    "sched.reg-oob",
                    pos,
                    cycle,
                    f"operand register {src.value} outside the "
                    f"{spec.register_words}-word register file",
                )
            elif check_regs and src.value not in defined_regs[pos]:
                report(
                    "sched.reg-use-before-def",
                    pos,
                    cycle,
                    f"register {src.value} read before any preload or write",
                )
        elif src.kind == "in_left":
            if c == 0:
                if cycle >= spec.left_feeds.get(r, 0):
                    report(
                        "sched.latch-use-before-def",
                        pos,
                        cycle,
                        f"in_left read at the boundary but the left feed for "
                        f"row {r} covers {spec.left_feeds.get(r, 0)} cycles",
                    )
            elif (r, c - 1) not in driven_prev["out_right"]:
                report(
                    "sched.latch-use-before-def",
                    pos,
                    cycle,
                    f"in_left read but PE {(r, c - 1)} did not drive its "
                    f"right latch in cycle {cycle - 1}",
                )
        elif src.kind == "in_top":
            if r == 0:
                if cycle >= spec.top_feeds.get(c, 0):
                    report(
                        "sched.latch-use-before-def",
                        pos,
                        cycle,
                        f"in_top read at the boundary but the top feed for "
                        f"column {c} covers {spec.top_feeds.get(c, 0)} cycles",
                    )
            elif (r - 1, c) not in driven_prev["out_down"]:
                report(
                    "sched.latch-use-before-def",
                    pos,
                    cycle,
                    f"in_top read but PE {(r - 1, c)} did not drive its "
                    f"down latch in cycle {cycle - 1}",
                )
        elif src.kind == "in_bottom":
            if r == spec.rows - 1:
                report(
                    "sched.latch-use-before-def",
                    pos,
                    cycle,
                    "in_bottom read in the bottom row: there is no bottom "
                    "boundary feed (use an explicit zero source)",
                )
            elif (r + 1, c) not in driven_prev["out_up"]:
                report(
                    "sched.latch-use-before-def",
                    pos,
                    cycle,
                    f"in_bottom read but PE {(r + 1, c)} did not drive its "
                    f"up latch in cycle {cycle - 1}",
                )

    for cycle in range(horizon):
        driven_now: Dict[str, Set[Coord]] = {l: set() for l in _LATCHES}
        reg_writes: List[Tuple[Coord, int]] = []
        for pos, program in in_grid.items():
            if cycle >= len(program):
                continue
            ops = mc._normalise_cycle(program[cycle])
            muls = sum(1 for i in ops if i.op in mc._MUL_OPS)
            adds = sum(1 for i in ops if i.op in mc._ADD_OPS)
            if muls > 1:
                report(
                    "sched.mul-overcommit",
                    pos,
                    cycle,
                    f"{muls} mul/mac ops issued; a PE has one multiplier",
                )
            if adds > 2:
                report(
                    "sched.add-overcommit",
                    pos,
                    cycle,
                    f"{adds} add/sub/mov ops issued; a PE has two adder slots",
                )
            for latch in _LATCHES:
                drivers = sum(1 for i in ops if getattr(i, latch))
                if drivers > 1:
                    report(
                        "sched.latch-double-drive",
                        pos,
                        cycle,
                        f"latch {latch} driven by {drivers} instructions",
                    )
            r, c = pos
            for instr in ops:
                if instr.op == "nop":
                    continue
                if instr.out_up and c not in spec.reverse_link_cols:
                    report(
                        "sched.reverse-link",
                        pos,
                        cycle,
                        f"up latch driven but column {c} has no reverse link",
                    )
                srcs = [instr.a, instr.b]
                if instr.op == "mac":
                    srcs.append(instr.c)
                for src in srcs:
                    check_read(pos, cycle, src)
                if instr.dst_reg is not None:
                    if not (0 <= instr.dst_reg < spec.register_words):
                        report(
                            "sched.reg-oob",
                            pos,
                            cycle,
                            f"destination register {instr.dst_reg} outside the "
                            f"{spec.register_words}-word register file",
                        )
                    else:
                        reg_writes.append((pos, instr.dst_reg))
                for latch in _LATCHES:
                    if getattr(instr, latch):
                        driven_now[latch].add(pos)
        # Commit: register writes and latch drives become visible next cycle.
        for pos, idx in reg_writes:
            defined_regs[pos].add(idx)
        driven_prev = driven_now
    return findings
