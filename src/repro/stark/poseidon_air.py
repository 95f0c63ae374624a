"""A Starky AIR for the Poseidon permutation itself.

Hashing dominates proof generation (paper Table 1), and production
Starky deployments prove hash chains with exactly this kind of AIR.
One permutation occupies a 32-row block: row ``r`` holds the state
*before* step ``r`` (steps: 4 full rounds, the pre-partial linear
round, 22 sparse partial rounds, 4 full rounds = 31 transitions), and
row 31 holds the output.  ``num_perms`` blocks chain head-to-tail
(``state_{k+1}(0) = state_k(31)``), proving an iterated permutation --
the hash-chain/VDF-style statement.

Row-dependent behaviour (round constants, round types, per-round sparse
matrices) comes from *constant columns*: public periodic polynomials
that are never committed (see :class:`repro.stark.Air`).

Degree management: the ``x^7`` S-box is split with an auxiliary cube
column (``aux_i = (s_i + rc_i)^3``), keeping every transition
constraint at degree <= 4 (selector x cube), so the quotient needs 3
chunks and a blowup of at least 8 (``rate_bits >= 2``... we use the
Plonky2-style ``rate_bits = 3``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..field import gl64, goldilocks as gl
from ..hashing.constants import WIDTH, mds_matrix, round_constants
from ..hashing.sparse import optimized_params
from .air import Air, BoundaryConstraint

#: Rows per permutation block (31 steps + output row).
BLOCK_ROWS = 32
#: Step indices within a block.
_FULL_FIRST = range(0, 4)
_PRE_ROW = 4
_PARTIAL = range(5, 27)
_FULL_SECOND = range(27, 31)


class PoseidonAir(Air):
    """AET proving ``num_perms`` chained Poseidon permutations."""

    constraint_degree = 4

    def __init__(self, num_perms: int = 1) -> None:
        if num_perms < 1 or num_perms & (num_perms - 1):
            raise ValueError("num_perms must be a power of two")
        self.num_perms = num_perms
        self.width = 2 * WIDTH  # 12 state + 12 aux cube columns

    # -- constant columns -----------------------------------------------------

    def constant_columns(self, n: int) -> np.ndarray:
        """Selectors, round constants, and sparse-matrix columns.

        Layout: [sel_full, sel_pre, sel_partial, sel_copy,
        rc[12], m00, row[11], col_hat[11]] = 40 columns.
        """
        if n != self.num_perms * BLOCK_ROWS:
            raise ValueError(
                f"trace length {n} != {self.num_perms} x {BLOCK_ROWS} rows"
            )
        params = optimized_params()
        full_rc, _ = round_constants()
        cols = np.zeros((40, n), dtype=np.uint64)
        sel_full, sel_pre, sel_partial, sel_copy = 0, 1, 2, 3
        rc0 = 4
        m00_col = 16
        row0 = 17
        ch0 = 28
        for blk in range(self.num_perms):
            base = blk * BLOCK_ROWS
            for i, r in enumerate(_FULL_FIRST):
                cols[sel_full, base + r] = 1
                cols[rc0 : rc0 + WIDTH, base + r] = full_rc[i]
            cols[sel_pre, base + _PRE_ROW] = 1
            cols[rc0 : rc0 + WIDTH, base + _PRE_ROW] = params.pre_constants
            for i, r in enumerate(_PARTIAL):
                rnd = params.rounds[i]
                cols[sel_partial, base + r] = 1
                cols[rc0, base + r] = rnd.post_constant
                cols[m00_col, base + r] = rnd.m00
                cols[row0 : row0 + 11, base + r] = rnd.row
                cols[ch0 : ch0 + 11, base + r] = rnd.col_hat
            for i, r in enumerate(_FULL_SECOND):
                cols[sel_full, base + r] = 1
                cols[rc0 : rc0 + WIDTH, base + r] = full_rc[4 + i]
            if blk + 1 < self.num_perms:
                cols[sel_copy, base + BLOCK_ROWS - 1] = 1
        return cols

    # -- constraints ------------------------------------------------------------

    def eval_transition_with_constants(
        self, local: Sequence, next_row: Sequence, constants: Sequence, alg
    ) -> List:
        s = local[:WIDTH]
        aux = local[WIDTH:]
        nxt = next_row[:WIDTH]
        sel_full, sel_pre, sel_partial, sel_copy = constants[0:4]
        rc = constants[4:16]
        m00 = constants[16]
        row_c = constants[17:28]
        ch_c = constants[28:39]
        mds = mds_matrix()
        pre = optimized_params().pre_matrix

        def cube(x):
            return alg.mul(alg.mul(x, x), x)

        constraints = []
        # Aux definitions.  Full rounds: aux_i = (s_i + rc_i)^3 for all i.
        shifted = [alg.add(s[i], rc[i]) for i in range(WIDTH)]
        for i in range(WIDTH):
            constraints.append(alg.mul(sel_full, alg.sub(aux[i], cube(shifted[i]))))
        # Partial rounds: aux_0 = s_0^3 (the S-box acts before the constant).
        constraints.append(alg.mul(sel_partial, alg.sub(aux[0], cube(s[0]))))

        # Full-round next state: next_j = sum_i MDS[i][j] * sbox_i where
        # sbox_i = aux_i^2 * shifted_i (degree 3 thanks to the aux column).
        sbox = [alg.mul(alg.mul(aux[i], aux[i]), shifted[i]) for i in range(WIDTH)]
        for j in range(WIDTH):
            acc = alg.constant(0)
            for i in range(WIDTH):
                acc = alg.add(acc, alg.mul_const(sbox[i], int(mds[i, j])))
            constraints.append(alg.mul(sel_full, alg.sub(nxt[j], acc)))

        # Pre-partial next state: next_j = sum_i Pre[i][j] * (s_i + rc_i).
        for j in range(WIDTH):
            acc = alg.constant(0)
            for i in range(WIDTH):
                acc = alg.add(acc, alg.mul_const(shifted[i], int(pre[i, j])))
            constraints.append(alg.mul(sel_pre, alg.sub(nxt[j], acc)))

        # Partial next state.  L = sbox(s_0) + post_const; the sparse
        # matrix columns are zero outside partial rows, so they self-gate.
        lane0 = alg.add(alg.mul(alg.mul(aux[0], aux[0]), s[0]), rc[0])
        # lane 0: sel * next_0 = m00 * L + sum ch_i * s_{i+1}
        rhs0 = alg.mul(m00, lane0)
        for i in range(WIDTH - 1):
            rhs0 = alg.add(rhs0, alg.mul(ch_c[i], s[i + 1]))
        constraints.append(alg.sub(alg.mul(sel_partial, nxt[0]), rhs0))
        # lanes j >= 1: sel * next_j = row_j * L + sel * s_j
        for j in range(WIDTH - 1):
            rhs = alg.add(alg.mul(row_c[j], lane0), alg.mul(sel_partial, s[j + 1]))
            constraints.append(alg.sub(alg.mul(sel_partial, nxt[j + 1]), rhs))

        # Block chaining: output row copies into the next block's input.
        for j in range(WIDTH):
            constraints.append(alg.mul(sel_copy, alg.sub(nxt[j], s[j])))
        return constraints

    # -- boundaries ----------------------------------------------------------------

    def boundary_constraints(self, public_inputs: Sequence[int]) -> List[BoundaryConstraint]:
        """Pin the first block's input and the last block's output."""
        if len(public_inputs) != 2 * WIDTH:
            raise ValueError("publics are [input state (12), output state (12)]")
        out_row = self.num_perms * BLOCK_ROWS - 1
        bcs = [
            BoundaryConstraint(0, i, int(public_inputs[i])) for i in range(WIDTH)
        ]
        bcs += [
            BoundaryConstraint(out_row, i, int(public_inputs[WIDTH + i]))
            for i in range(WIDTH)
        ]
        return bcs


def generate_trace(input_state: Sequence[int], num_perms: int = 1) -> np.ndarray:
    """Build the execution trace for ``num_perms`` chained permutations.

    Returns (num_perms * 32, 24); the final state equals
    ``permute^num_perms(input_state)``.
    """
    params = optimized_params()
    full_rc, _ = round_constants()
    mds = [[int(v) for v in r] for r in mds_matrix().tolist()]
    pre = [[int(v) for v in r] for r in optimized_params().pre_matrix.tolist()]
    n = num_perms * BLOCK_ROWS
    trace = np.zeros((n, 2 * WIDTH), dtype=np.uint64)
    state = [gl.canonical(int(v)) for v in input_state]

    def row_vec_mat(vec, mat):
        return [
            gl.canonical(sum(vec[i] * mat[i][j] for i in range(WIDTH)))
            for j in range(WIDTH)
        ]

    for blk in range(num_perms):
        base = blk * BLOCK_ROWS
        for step in range(BLOCK_ROWS - 1):
            row = base + step
            trace[row, :WIDTH] = state
            if step in _FULL_FIRST or step in _FULL_SECOND:
                r = step if step in _FULL_FIRST else 4 + (step - 27)
                shifted = [
                    gl.canonical(state[i] + int(full_rc[r][i])) for i in range(WIDTH)
                ]
                for i in range(WIDTH):
                    trace[row, WIDTH + i] = pow(shifted[i], 3, gl.P)
                sboxed = [pow(v, 7, gl.P) for v in shifted]
                state = row_vec_mat(sboxed, mds)
            elif step == _PRE_ROW:
                shifted = [
                    gl.canonical(state[i] + int(params.pre_constants[i]))
                    for i in range(WIDTH)
                ]
                state = row_vec_mat(shifted, pre)
            else:  # partial
                rnd = params.rounds[step - 5]
                trace[row, WIDTH] = pow(state[0], 3, gl.P)
                lane0 = gl.canonical(pow(state[0], 7, gl.P) + rnd.post_constant)
                out0 = gl.canonical(
                    lane0 * rnd.m00
                    + sum(int(rnd.col_hat[i]) * state[i + 1] for i in range(WIDTH - 1))
                )
                rest = [
                    gl.canonical(lane0 * int(rnd.row[j]) + state[j + 1])
                    for j in range(WIDTH - 1)
                ]
                state = [out0] + rest
        trace[base + BLOCK_ROWS - 1, :WIDTH] = state
    return trace


def public_values(input_state: Sequence[int], num_perms: int = 1) -> List[int]:
    """The AIR's public inputs: input state + final chained output."""
    from ..hashing import permute

    state = np.asarray(input_state, dtype=np.uint64)
    for _ in range(num_perms):
        state = permute(state)
    return [gl.canonical(int(v)) for v in input_state] + [int(v) for v in state]
