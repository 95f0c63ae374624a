"""Differential oracles: optimized data plane vs. slow references.

Each oracle drives one optimized kernel family over randomized shapes
and values and cross-checks it against an independent, obviously-correct
implementation (scalar Python-int arithmetic, the naive Poseidon
permutation, an O(n^2) DFT, a Horner chain).  A mismatch is a finding:
it means the zero-copy data plane silently computes a different field
function than the specification, which no proof-level test would pin
down to a kernel.

All oracles are deterministic in their seed; ``run_oracles(seed, iters)``
derives one child generator per (oracle, iteration) so a reported
iteration can be replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..context import scoped
from ..field import extension as fext, gl64, goldilocks as gl
from ..hashing import optimized, poseidon, sponge
from ..ntt import intt, ntt


@dataclass(frozen=True)
class OracleFinding:
    """One divergence between an optimized kernel and its reference."""

    oracle: str
    iteration: int
    detail: str


def _rand_shape(rng: np.random.Generator) -> tuple:
    """A small random array shape (1-D or 2-D, up to a few hundred elems)."""
    if int(rng.integers(0, 2)):
        return (int(rng.integers(1, 257)),)
    return (int(rng.integers(1, 17)), int(rng.integers(1, 17)))


def _scalar_map(fn, *arrays) -> np.ndarray:
    """Apply a Python-int scalar function elementwise (the slow reference)."""
    flats = [np.asarray(a, dtype=np.uint64).reshape(-1) for a in arrays]
    out = np.fromiter(
        (fn(*(int(f[i]) for f in flats)) for i in range(flats[0].size)),
        dtype=np.uint64,
        count=flats[0].size,
    )
    return out.reshape(arrays[0].shape)


def check_gl_kernels(rng: np.random.Generator) -> List[str]:
    """In-place ``_into`` GL kernels vs scalar ``goldilocks`` arithmetic."""
    problems: List[str] = []
    shape = _rand_shape(rng)
    a = gl64.random(shape, rng)
    b = gl64.random(shape, rng)

    cases = [
        ("add_into", gl64.add_into, gl.add),
        ("sub_into", gl64.sub_into, gl.sub),
        ("mul_into", gl64.mul_into, gl.mul),
    ]
    for name, kernel, ref_fn in cases:
        out = np.empty(shape, dtype=np.uint64)
        kernel(a, b, out)
        ref = _scalar_map(ref_fn, a, b)
        if not np.array_equal(out, ref):
            problems.append(f"{name} diverges from scalar reference on shape {shape}")
        # Aliased form: out is the first input (the data plane's hot case).
        aliased = a.copy()
        kernel(aliased, b, aliased)
        if not np.array_equal(aliased, ref):
            problems.append(f"{name} (aliased out=a) diverges on shape {shape}")

    out = np.empty(shape, dtype=np.uint64)
    gl64.square_into(a, out)
    if not np.array_equal(out, _scalar_map(gl.square, a)):
        problems.append(f"square_into diverges on shape {shape}")
    gl64.pow7_into(a, out)
    if not np.array_equal(out, _scalar_map(lambda v: gl.pow_mod(v, 7), a)):
        problems.append(f"pow7_into diverges on shape {shape}")

    base = int(rng.integers(0, gl.P, dtype=np.uint64))
    count = int(rng.integers(1, 65))
    table = gl64.powers(base, count)
    ref_table = np.fromiter(
        (gl.pow_mod(base, i) for i in range(count)), dtype=np.uint64, count=count
    )
    if not np.array_equal(table, ref_table):
        problems.append(f"powers({base}, {count}) diverges from pow_mod chain")
    return problems


#: Batch sizes on both sides of the scalar/vector crossover
#: (``optimized._SCALAR_ROWS``), of the partial block's Python-``pow``
#: S-box crossover (``optimized._SBOX_SCALAR_ROWS``) and of the limb
#: GEMM's 256-row block.
_POSEIDON_BATCHES = (
    optimized._SCALAR_ROWS,
    optimized._SCALAR_ROWS + 1,
    optimized._SBOX_SCALAR_ROWS,
    optimized._SBOX_SCALAR_ROWS + 1,
    255,
    256,
    257,
    513,
)

#: Lane values at the limb boundaries of the GEMM kernel: the ends of the
#: canonical range, the 32-bit split, and words whose 16-bit limbs are
#: all-ones or all-zeros in every pattern that stays below ``p``.
_LIMB_EDGES = (
    0,
    1,
    0xFFFF,
    0x1_0000,
    0xFFFF_FFFF,
    0x1_0000_0000,
    0xFFFF_0000_FFFF,
    0xFFFF_FFFF_FFFF,
    0xFFFF_0000_FFFF_FFFF,
    0xFFFF_FFFE_FFFF_FFFF,
    gl.P - 1,
)


def _edge_rows(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """A random canonical ``(rows, width)`` array whose leading rows hold
    limb-edge values: one constant row per edge, then as many rows
    mixing edges across columns."""
    out = gl64.random(shape, rng)
    edges = np.array(_LIMB_EDGES, dtype=np.uint64)
    rows = min(shape[0], len(edges))
    out[:rows] = edges[:rows, None]
    mixed = out[rows : 2 * rows]
    mixed[...] = rng.choice(edges, size=mixed.shape)
    return out


def _naive_hash_batch(inputs: np.ndarray) -> np.ndarray:
    """Overwrite-mode sponge over ``permute_naive`` (reference)."""
    state = np.zeros((inputs.shape[0], poseidon.WIDTH), dtype=np.uint64)
    for start in range(0, inputs.shape[1], sponge.RATE):
        chunk = inputs[:, start : start + sponge.RATE]
        state[:, : chunk.shape[1]] = chunk
        state = poseidon.permute_naive(state)
    return state[:, : sponge.DIGEST_LEN]


def check_poseidon(rng: np.random.Generator) -> List[str]:
    """Batched (limb-GEMM) and scalar Poseidon vs the naive permutation.

    One small batch exercises the scalar path as dispatched by
    ``permute_into``; every size in ``_POSEIDON_BATCHES`` exercises the
    vectorised kernel through ``permute``, ``permute_into`` and the
    sponge's ``hash_batch``, on states seeded with limb-edge rows.
    """
    problems: List[str] = []
    top = max(_POSEIDON_BATCHES)
    states = _edge_rows((top, poseidon.WIDTH), rng)
    ref = poseidon.permute_naive(states)
    length = int(rng.integers(1, 2 * sponge.RATE + 2))
    inputs = _edge_rows((top, length), rng)
    ref_digests = _naive_hash_batch(inputs)
    for batch in (int(rng.integers(1, optimized._SCALAR_ROWS + 1)),) + _POSEIDON_BATCHES:
        if not np.array_equal(optimized.permute(states[:batch]), ref[:batch]):
            problems.append(f"optimized.permute diverges from permute_naive (batch {batch})")
        buf = states[:batch].copy()
        optimized.permute_into(buf)
        if not np.array_equal(buf, ref[:batch]):
            problems.append(f"optimized.permute_into diverges from permute_naive (batch {batch})")
        if not np.array_equal(sponge.hash_batch(inputs[:batch]), ref_digests[:batch]):
            problems.append(
                f"sponge.hash_batch diverges from the naive sponge (batch {batch}, length {length})"
            )
    row = int(rng.integers(0, top))
    scalar = optimized.permute_scalar([int(v) for v in states[row]])
    if [int(v) for v in ref[row]] != scalar:
        problems.append("optimized.permute_scalar diverges from permute_naive")
    return problems


def _naive_dft(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """O(n^2) reference DFT over GF(p) with Python-int arithmetic."""
    n = a.shape[0]
    log_n = n.bit_length() - 1
    omega = gl.primitive_root_of_unity(log_n)
    if inverse:
        omega = gl.inverse(omega)
    vals = [int(v) for v in a]
    out = np.empty(n, dtype=np.uint64)
    for j in range(n):
        wj = gl.pow_mod(omega, j)
        acc, wji = 0, 1
        for i in range(n):
            acc = gl.add(acc, gl.mul(vals[i], wji))
            wji = gl.mul(wji, wj)
        out[j] = acc
    if inverse:
        n_inv = gl.inverse(n)
        out = _scalar_map(lambda v: gl.mul(v, n_inv), out)
    return out


def check_ntt(rng: np.random.Generator) -> List[str]:
    """Workspace NTT / INTT vs the naive O(n^2) DFT."""
    problems: List[str] = []
    log_n = int(rng.integers(1, 7))
    n = 1 << log_n
    a = gl64.random(n, rng)
    fwd = ntt(a)
    if not np.array_equal(fwd, _naive_dft(a)):
        problems.append(f"ntt diverges from naive DFT at n={n}")
    back = intt(fwd)
    if not np.array_equal(back, a):
        problems.append(f"intt(ntt(a)) != a at n={n}")
    if not np.array_equal(intt(a), _naive_dft(a, inverse=True)):
        problems.append(f"intt diverges from naive inverse DFT at n={n}")
    return problems


def _horner_ext(coeffs: np.ndarray, x0: int, x1: int) -> tuple:
    """Scalar Horner evaluation of base coefficients at an ext point."""
    w = fext.non_residue()
    a0, a1 = 0, 0
    for c in [int(v) for v in coeffs][::-1]:
        # (a0, a1) <- (a0, a1) * (x0, x1) + (c, 0)
        n0 = gl.add(gl.mul(a0, x0), gl.mul(w, gl.mul(a1, x1)))
        n1 = gl.add(gl.mul(a0, x1), gl.mul(a1, x0))
        a0, a1 = gl.add(n0, c), n1
    return a0, a1


def check_ext_eval(rng: np.random.Generator) -> List[str]:
    """Power-table extension evaluation vs a scalar Horner chain."""
    problems: List[str] = []
    n = int(rng.integers(1, 129))
    coeffs = gl64.random(n, rng)
    x0 = int(rng.integers(0, gl.P, dtype=np.uint64))
    x1 = int(rng.integers(0, gl.P, dtype=np.uint64))
    x = np.array([x0, x1], dtype=np.uint64)
    got = fext.to_pair(fext.eval_poly_base(coeffs, x))
    if got != _horner_ext(coeffs, x0, x1):
        problems.append(f"eval_poly_base diverges from Horner at n={n}")
    rows = int(rng.integers(1, 5))
    mat = gl64.random((rows, n), rng)
    batch = fext.eval_polys_base(mat, x)
    for r in range(rows):
        if fext.to_pair(batch[r]) != _horner_ext(mat[r], x0, x1):
            problems.append(f"eval_polys_base row {r} diverges from Horner at n={n}")
            break
    table = fext.powers(x, n)
    acc0, acc1 = 1, 0
    for i in range(n):
        if fext.to_pair(table[i]) != (acc0, acc1):
            problems.append(f"fext.powers index {i} diverges from scalar chain")
            break
        n0 = gl.add(gl.mul(acc0, x0), gl.mul(fext.non_residue(), gl.mul(acc1, x1)))
        n1 = gl.add(gl.mul(acc0, x1), gl.mul(acc1, x0))
        acc0, acc1 = n0, n1
    return problems


#: Oracle registry, keyed by stable names (used in reports and artifacts).
ORACLES: Dict[str, Callable[[np.random.Generator], List[str]]] = {
    "gl-kernels": check_gl_kernels,
    "poseidon": check_poseidon,
    "ntt": check_ntt,
    "ext-eval": check_ext_eval,
}


def run_oracles(seed: int, iterations: int) -> List[OracleFinding]:
    """Run every oracle ``iterations`` times; returns all divergences.

    Iteration ``i`` of oracle ``name`` uses the generator seeded with
    ``[seed, index(name), i]`` -- rerunning with the same seed replays
    the exact inputs of a reported finding.  Each run gets a fresh
    kernel arena, so no oracle sees another's scratch.
    """
    findings: List[OracleFinding] = []
    for oi, (name, check) in enumerate(ORACLES.items()):
        for i in range(iterations):
            rng = np.random.default_rng([seed, oi, i])
            with scoped("workspace", gl64.Workspace()):
                details = check(rng)
            for detail in details:
                findings.append(OracleFinding(oracle=name, iteration=i, detail=detail))
    return findings
