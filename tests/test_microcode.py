"""Cycle-stepped PE-grid emulator and kernel schedules."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl, matrix as fm
from repro.hw.microcode import (
    IN_BOTTOM,
    IN_LEFT,
    IN_TOP,
    NOP,
    GridEmulator,
    Instr,
    Src,
    imm,
    reg,
)
from repro.mapping.microcode_schedules import (
    build_matvec,
    build_reverse_dot,
    build_sbox_pipeline,
    build_vector_mac,
)


def matvec_outputs(weights, states):
    """Execute :func:`build_matvec`; ``(out, cycles)`` with ``out[s][j]``
    read from register ``1 + s`` of bottom-row PE ``(n - 1, j)``."""
    built = build_matvec(weights, states)
    cycles = built.run()
    n = weights.shape[0]
    regs = [built.emu.regs[(n - 1, j)] for j in range(n)]
    out = np.array(
        [[r[1 + s] for r in regs] for s in range(states.shape[0])], dtype=np.uint64
    )
    return out, cycles


def sbox_outputs(values, post_constant=0):
    """Execute :func:`build_sbox_pipeline`; ``(outputs, cycles)`` with
    output ``s`` read from register ``10 + s`` of PE ``(4, 0)``."""
    built = build_sbox_pipeline(values, post_constant)
    cycles = built.run()
    return [built.emu.regs[(4, 0)][10 + s] for s in range(len(values))], cycles


def dot_output(state, coeffs):
    """Execute :func:`build_reverse_dot`; ``(value, cycles)`` with the
    value the last one to leave the top boundary."""
    built = build_reverse_dot(state, coeffs)
    cycles = built.run()
    assert built.emu.top_outputs, "dot product never reached the top boundary"
    return built.emu.top_outputs[-1][2], cycles


def mac_outputs(xs, ys, zs):
    """Execute :func:`build_vector_mac`; ``(outputs, cycles)`` with the
    ``k``-th element of lane ``r`` read from register ``10 + k`` of PE
    ``(r, 0)``.  An empty schedule runs nothing."""
    built = build_vector_mac(xs, ys, zs)
    if not built.programs:
        return [], 0
    cycles = built.run()
    rows = built.emu.rows
    out = [built.emu.regs[(e % rows, 0)][10 + e // rows] for e in range(len(xs))]
    return out, cycles


class TestMachine:
    def test_bad_opcode_and_source(self):
        with pytest.raises(ValueError):
            Instr("frobnicate")
        with pytest.raises(ValueError):
            Src("nowhere")

    def test_imm_and_reg_ops(self):
        emu = GridEmulator(1, 1)
        emu.run({(0, 0): [Instr("add", imm(3), imm(4), dst_reg=0)]})
        assert emu.regs[(0, 0)][0] == 7

    def test_mul_wraps_in_field(self):
        emu = GridEmulator(1, 1)
        emu.run({(0, 0): [Instr("mul", imm(gl.P - 1), imm(gl.P - 1), dst_reg=0)]})
        assert emu.regs[(0, 0)][0] == 1

    def test_mac(self):
        emu = GridEmulator(1, 1)
        emu.run({(0, 0): [Instr("mac", imm(3), imm(4), imm(5), dst_reg=0)]})
        assert emu.regs[(0, 0)][0] == 17

    def test_link_latency_one_cycle(self):
        # PE (0,0) drives 42 at cycle 0 and 7 at cycle 1; PE (0,1) reads
        # its left latch at cycles 1 and 2, so each value lands exactly
        # one cycle after it was driven.  A cycle-0 read would see no
        # driven value, and the sanitizer rejects it before any cycle.
        emu = GridEmulator(1, 2)
        emu.run({
            (0, 0): [Instr("mov", imm(42), out_right=True),
                     Instr("mov", imm(7), out_right=True)],
            (0, 1): [NOP,
                     Instr("mov", IN_LEFT, dst_reg=0),
                     Instr("mov", IN_LEFT, dst_reg=1)],
        })
        assert emu.regs[(0, 1)][0] == 42
        assert emu.regs[(0, 1)][1] == 7
        early = {
            (0, 0): [Instr("mov", imm(42), out_right=True)],
            (0, 1): [Instr("mov", IN_LEFT, dst_reg=0)],
        }
        with pytest.raises(ValueError, match="sched.latch-use-before-def"):
            GridEmulator(1, 2).run(early)

    def test_down_link(self):
        emu = GridEmulator(2, 1)
        programs = {
            (0, 0): [Instr("mov", imm(9), out_down=True)],
            (1, 0): [NOP, Instr("mov", IN_TOP, dst_reg=0)],
        }
        emu.run(programs)
        assert emu.regs[(1, 0)][0] == 9

    def test_reverse_link_requires_declaration(self):
        emu = GridEmulator(2, 1)
        programs = {(1, 0): [Instr("mov", imm(1), out_up=True)]}
        with pytest.raises(ValueError):
            emu.run(programs)

    def test_reverse_link_up(self):
        emu = GridEmulator(2, 1, reverse_link_cols=(0,))
        programs = {
            (1, 0): [Instr("mov", imm(5), out_up=True)],
            (0, 0): [NOP, Instr("mov", IN_BOTTOM, dst_reg=0)],
        }
        emu.run(programs)
        assert emu.regs[(0, 0)][0] == 5

    def test_top_boundary_output(self):
        emu = GridEmulator(1, 1, reverse_link_cols=(0,))
        emu.run({(0, 0): [Instr("mov", imm(7), out_up=True)]})
        assert emu.top_outputs == [(0, 0, 7)]

    def test_right_boundary_output(self):
        emu = GridEmulator(1, 1)
        emu.run({(0, 0): [Instr("mov", imm(8), out_right=True)]})
        assert emu.right_outputs == [(0, 0, 8)]

    def test_multiplier_contention_rejected(self):
        emu = GridEmulator(1, 1)
        two_muls = (Instr("mul", imm(1), imm(1)), Instr("mul", imm(2), imm(2)))
        with pytest.raises(ValueError):
            emu.run({(0, 0): [two_muls]})

    def test_adder_contention_rejected(self):
        emu = GridEmulator(1, 1)
        three_adds = tuple(Instr("add", imm(i), imm(i)) for i in range(3))
        with pytest.raises(ValueError):
            emu.run({(0, 0): [three_adds]})

    def test_latch_contention_rejected(self):
        emu = GridEmulator(1, 2)
        both_drive = (
            Instr("mov", imm(1), out_right=True),
            Instr("mov", imm(2), out_right=True),
        )
        with pytest.raises(ValueError):
            emu.run({(0, 0): [both_drive]})

    def test_program_outside_grid_rejected(self):
        emu = GridEmulator(2, 2)
        with pytest.raises(ValueError):
            emu.run({(5, 0): [NOP]})

    def test_op_counters(self):
        emu = GridEmulator(1, 1)
        emu.run({(0, 0): [Instr("mac", imm(1), imm(2), imm(3), dst_reg=0)]})
        assert emu.mul_count == 1 and emu.add_count == 1

    def test_left_feed(self):
        emu = GridEmulator(1, 1)
        emu.run(
            {(0, 0): [Instr("mov", IN_LEFT, dst_reg=0), Instr("mov", IN_LEFT, dst_reg=1)]},
            left_inputs={0: [11, 22]},
        )
        assert emu.regs[(0, 0)][0] == 11 and emu.regs[(0, 0)][1] == 22


class TestSchedules:
    def test_matvec_matches_reference(self, rng):
        w = gl64.random((6, 6), rng)
        states = gl64.random((5, 6), rng)
        out, cycles = matvec_outputs(w, states)
        expect = np.stack(
            [np.array(fm.matvec(w.T, row), dtype=np.uint64) for row in states]
        )
        assert np.array_equal(out, expect)
        # throughput: 1 state/cycle plus fill/drain skew
        assert cycles <= 5 + 2 * 6 + 1

    def test_matvec_single_state(self, rng):
        w = gl64.random((3, 3), rng)
        states = gl64.random((1, 3), rng)
        out, _ = matvec_outputs(w, states)
        assert [int(v) for v in out[0]] == fm.matvec(w.T, states[0])

    def test_matvec_12x12_poseidon_mds(self, rng):
        from repro.hashing.constants import mds_matrix

        states = gl64.random((3, 12), rng)
        out, _ = matvec_outputs(mds_matrix(), states)
        from repro.hashing.poseidon import apply_mds

        assert np.array_equal(out, apply_mds(states))

    def test_sbox_pipeline(self, rng):
        vals = [int(x) for x in gl64.random(10, rng)]
        outs, cycles = sbox_outputs(vals, post_constant=999)
        assert outs == [gl.add(gl.pow_mod(v, 7), 999) for v in vals]
        # initiation interval 2 plus fixed pipeline latency
        assert cycles == 2 * len(vals) + 7

    def test_sbox_pipeline_single(self):
        outs, _ = sbox_outputs([3])
        assert outs == [gl.pow_mod(3, 7)]

    def test_sbox_zero_and_one(self):
        outs, _ = sbox_outputs([0, 1])
        assert outs == [0, 1]

    def test_reverse_dot(self, rng):
        state = [int(x) for x in gl64.random(12, rng)]
        coeffs = [int(x) for x in gl64.random(12, rng)]
        val, cycles = dot_output(state, coeffs)
        assert val == sum(s * c for s, c in zip(state, coeffs)) % gl.P
        assert cycles == 13  # n + 1: one mac per row, bottom-up

    def test_reverse_dot_matches_sparse_round_column(self, rng):
        # The Figure 5b `v` column: col_hat dotted against state[1:].
        from repro.hashing.sparse import optimized_params

        rnd = optimized_params().rounds[0]
        state = [int(x) for x in gl64.random(11, rng)]
        val, _ = dot_output(state, [int(v) for v in rnd.col_hat])
        expect = sum(s * int(c) for s, c in zip(state, rnd.col_hat)) % gl.P
        assert val == expect

    def test_vector_mac(self, rng):
        xs = [int(x) for x in gl64.random(30, rng)]
        ys = [int(x) for x in gl64.random(30, rng)]
        zs = [int(x) for x in gl64.random(30, rng)]
        outs, cycles = mac_outputs(xs, ys, zs)
        assert outs == [(x * y + z) % gl.P for x, y, z in zip(xs, ys, zs)]
        # 3 operand-stream cycles per element per lane
        assert cycles == 3 * (-(-30 // 12))

    def test_vector_mac_empty(self):
        assert mac_outputs([], [], []) == ([], 0)

    def test_vector_mac_length_mismatch(self):
        with pytest.raises(ValueError):
            mac_outputs([1], [2, 3], [4])
