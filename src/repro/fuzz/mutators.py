"""Structured mutation library over serialized proofs (all protocols).

Every mutator takes a :class:`~repro.fuzz.targets.FuzzTarget` and a
seeded ``numpy.random.Generator`` and produces a :class:`Mutant`:

* **byte mutants** carry a mutated serialized proof -- they exercise the
  deserializer *and* the verifier (most structured mutators decode the
  honest proof, tamper with one structural element, and re-encode);
* **object mutants** carry a mutated in-memory proof object -- they
  exercise verifier states that the codec cannot even express (e.g. a
  0-d array where a tree opening's row matrix belongs, which the
  codec's shape header would refuse).

Mutators are deterministic in ``(target, rng)``: re-running one with
the same per-iteration seed regenerates the identical mutant, which is
how object-mutant findings are replayed from artifacts.  A mutator may
return ``None`` when it does not apply (e.g. ``perturb-degree-bits`` on
a Plonk proof).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..field import goldilocks as gl
from .targets import FuzzTarget

_P = gl.P


@dataclass
class Mutant:
    """One mutated proof, as bytes or as an in-memory object."""

    mutator: str
    data: Optional[bytes] = None  # byte-level mutant
    proof: Optional[object] = None  # object-level mutant (skips decode)

    @property
    def kind(self) -> str:
        """``"bytes"`` or ``"object"``."""
        return "bytes" if self.data is not None else "object"


def _rand_elem(rng: np.random.Generator, not_equal: int | None = None) -> int:
    """A uniform canonical field element, optionally != a given value."""
    while True:
        v = int(rng.integers(0, _P, dtype=np.uint64))
        if v != not_equal:
            return v


# -- access helpers over both proof shapes ------------------------------------


def _cap_slots(proof) -> list:
    """Addressable Merkle-cap slots: ``(attr, index_or_None)`` pairs."""
    slots = []
    for name in ("trace_cap", "quotient_cap", "wires_cap", "z_cap"):
        if hasattr(proof, name):
            slots.append((name, None))
    if hasattr(proof, "fri_proof"):
        for i in range(len(proof.fri_proof.commit_caps)):
            slots.append(("commit_caps", i))
    for i in range(len(getattr(proof, "level_caps", ()))):
        slots.append(("level_caps", i))
    return slots


def _get_cap(proof, slot) -> np.ndarray:
    name, idx = slot
    if name == "commit_caps":
        return proof.fri_proof.commit_caps[idx]
    if name == "level_caps":
        return proof.level_caps[idx]
    return getattr(proof, name)


def _set_cap(proof, slot, value: np.ndarray) -> None:
    name, idx = slot
    if name == "commit_caps":
        proof.fri_proof.commit_caps[idx] = value
    elif name == "level_caps":
        proof.level_caps[idx] = value
    else:
        setattr(proof, name, value)


def _tree_openings(proof) -> list:
    """Every :class:`~repro.merkle.TreeOpening` of a proof, either shape."""
    if hasattr(proof, "fri_proof"):
        return proof.fri_proof.tree_openings()
    return proof.tree_openings()


def _layer_openings(proof) -> list:
    """FRI fold-layer tree openings ([] for other proof shapes)."""
    return proof.fri_proof.layer_openings if hasattr(proof, "fri_proof") else []


def _all_arrays(proof) -> list:
    """Every mutable field-element array reachable in a proof."""
    arrays = [_get_cap(proof, s) for s in _cap_slots(proof)]
    if hasattr(proof, "openings"):
        arrays.extend(proof.openings.points)
        arrays.extend(proof.openings.values)
    if hasattr(proof, "fri_proof"):
        arrays.append(proof.fri_proof.final_poly)
    for op in _tree_openings(proof):
        arrays.append(op.rows)
        arrays.append(op.proof.nodes)
    return [a for a in arrays if a.size]


def _choice(rng: np.random.Generator, seq):
    return seq[int(rng.integers(0, len(seq)))]


# -- byte-level mutators -------------------------------------------------------


def bit_flip(target: FuzzTarget, rng) -> Mutant:
    """Flip one bit anywhere in the serialized proof."""
    blob = bytearray(target.blob)
    pos = int(rng.integers(0, len(blob)))
    blob[pos] ^= 1 << int(rng.integers(0, 8))
    return Mutant("bit-flip", data=bytes(blob))


def truncate_bytes(target: FuzzTarget, rng) -> Mutant:
    """Cut the serialized proof at a random position."""
    cut = int(rng.integers(0, len(target.blob)))
    return Mutant("truncate-bytes", data=target.blob[:cut])


def extend_bytes(target: FuzzTarget, rng) -> Mutant:
    """Append 1..16 random bytes after a valid proof."""
    extra = rng.integers(0, 256, size=int(rng.integers(1, 17)), dtype=np.uint8)
    return Mutant("extend-bytes", data=target.blob + extra.tobytes())


def stomp_u32(target: FuzzTarget, rng) -> Mutant:
    """Overwrite a 4-byte window with ``0xFFFFFFFF``.

    Unaligned windows corrupt payloads; aligned ones inflate the
    length/count prefixes the deserializer must bound-check.
    """
    blob = bytearray(target.blob)
    pos = int(rng.integers(0, len(blob) - 3))
    blob[pos : pos + 4] = b"\xff\xff\xff\xff"
    return Mutant("stomp-u32", data=bytes(blob))


def zero_window(target: FuzzTarget, rng) -> Mutant:
    """Zero out an 8-byte window of the serialized proof."""
    blob = bytearray(target.blob)
    pos = int(rng.integers(0, max(1, len(blob) - 7)))
    blob[pos : pos + 8] = b"\x00" * len(blob[pos : pos + 8])
    return Mutant("zero-window", data=bytes(blob))


def splice_proofs(target: FuzzTarget, rng) -> Mutant:
    """Concatenate a prefix of one valid proof with another's suffix."""
    a, b = target.blob, target.alt_blob
    cut = int(rng.integers(1, min(len(a), len(b))))
    return Mutant("splice-proofs", data=a[:cut] + b[cut:])


# -- structured mutators (decode, tamper, re-encode) ---------------------------


def flip_field_element(target: FuzzTarget, rng) -> Mutant:
    """Replace one field element anywhere in the proof structure."""
    proof = target.decode(target.blob)
    arr = _choice(rng, _all_arrays(proof))
    flat = arr.reshape(-1)
    idx = int(rng.integers(0, flat.size))
    flat[idx] = np.uint64(_rand_elem(rng, not_equal=int(flat[idx])))
    return Mutant("flip-field-element", data=target.encode(proof))


def perturb_opening_value(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Perturb one claimed opening evaluation (FRI-family proofs)."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "openings"):
        return None
    vals = _choice(rng, proof.openings.values)
    flat = vals.reshape(-1)
    idx = int(rng.integers(0, flat.size))
    flat[idx] = np.uint64(_rand_elem(rng, not_equal=int(flat[idx])))
    return Mutant("perturb-opening-value", data=target.encode(proof))


def swap_opening_points(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Swap the two opening points (zeta and zeta * omega)."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "openings"):
        return None
    pts = proof.openings.points
    pts[0], pts[1] = pts[1], pts[0]
    return Mutant("swap-opening-points", data=target.encode(proof))


def swap_cap_entries(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Swap two rows of one Merkle cap."""
    proof = target.decode(target.blob)
    slots = [s for s in _cap_slots(proof) if _get_cap(proof, s).shape[0] >= 2]
    if not slots:
        return None
    cap = _get_cap(proof, _choice(rng, slots))
    i, j = 0, int(rng.integers(1, cap.shape[0]))
    if np.array_equal(cap[i], cap[j]):
        return None
    cap[[i, j]] = cap[[j, i]]
    return Mutant("swap-cap-entries", data=target.encode(proof))


def truncate_cap(target: FuzzTarget, rng) -> Mutant:
    """Drop the last row of one Merkle cap."""
    proof = target.decode(target.blob)
    slot = _choice(rng, _cap_slots(proof))
    _set_cap(proof, slot, _get_cap(proof, slot)[:-1])
    return Mutant("truncate-cap", data=target.encode(proof))


def drop_sibling_node(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Remove one shared path node from one tree opening.

    The frontier then runs out of supplied digests one level short of
    the cap (or pairs the wrong ones), so the tree's Merkle check fails.
    """
    proof = target.decode(target.blob)
    ops = [op for op in _tree_openings(proof) if op.proof.nodes.shape[0]]
    if not ops:
        return None
    op = _choice(rng, ops)
    op.proof.nodes = np.delete(op.proof.nodes, int(rng.integers(0, op.proof.nodes.shape[0])), axis=0)
    return Mutant("drop-sibling-node", data=target.encode(proof))


def duplicate_opened_row(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Open one index of one tree twice, row and index both repeated.

    Indices must be strictly ascending: the codec refuses the repeat,
    and a verifier handed the object refuses an index set that is not
    the transcript's.
    """
    proof = target.decode(target.blob)
    ops = [op for op in _tree_openings(proof) if op.proof.indices]
    if not ops:
        return None
    op = _choice(rng, ops)
    k = int(rng.integers(0, len(op.proof.indices)))
    op.proof.indices = op.proof.indices[: k + 1] + op.proof.indices[k:]
    op.rows = np.insert(op.rows, k, op.rows[k], axis=0)
    return Mutant("duplicate-opened-row", data=target.encode(proof))


def swap_opened_rows(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Swap two opened rows of one tree, indices left in order.

    Every shape and index set the verifier pins still holds; only the
    multiproof's binding of row ``k`` to ``indices[k]`` can reject it.
    """
    proof = target.decode(target.blob)
    ops = [op for op in _tree_openings(proof) if op.rows.shape[0] >= 2]
    if not ops:
        return None
    op = _choice(rng, ops)
    i, j = (int(k) for k in rng.choice(op.rows.shape[0], size=2, replace=False))
    if np.array_equal(op.rows[i], op.rows[j]):
        return None
    op.rows[[i, j]] = op.rows[[j, i]]
    return Mutant("swap-opened-rows", data=target.encode(proof))


def drop_layer(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Remove one fold-layer tree opening."""
    proof = target.decode(target.blob)
    layers = _layer_openings(proof)
    if not layers:
        return None
    del layers[int(rng.integers(0, len(layers)))]
    return Mutant("drop-layer", data=target.encode(proof))


def duplicate_layer(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Duplicate one fold-layer tree opening in place."""
    proof = target.decode(target.blob)
    layers = _layer_openings(proof)
    if not layers:
        return None
    idx = int(rng.integers(0, len(layers)))
    layers.insert(idx, layers[idx])
    return Mutant("duplicate-layer", data=target.encode(proof))


def resize_final_poly(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Truncate the final polynomial, or pad it past the degree bound."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "fri_proof"):
        return None
    fp = proof.fri_proof
    if int(rng.integers(0, 2)) and fp.final_poly.shape[0]:
        fp.final_poly = fp.final_poly[:-1]
    else:
        extra = np.array(
            [[_rand_elem(rng), _rand_elem(rng)]], dtype=np.uint64
        )
        fp.final_poly = np.concatenate([fp.final_poly, extra])
    return Mutant("resize-final-poly", data=target.encode(proof))


def corrupt_pow_witness(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Shift the grinding witness."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "fri_proof"):
        return None
    fp = proof.fri_proof
    fp.pow_witness = (fp.pow_witness + int(rng.integers(1, 1 << 32))) % (1 << 64)
    return Mutant("corrupt-pow-witness", data=target.encode(proof))


def perturb_public_input(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Change, append, or drop a public input."""
    proof = target.decode(target.blob)
    publics = proof.public_inputs
    action = int(rng.integers(0, 3))
    if action == 0 and publics:
        idx = int(rng.integers(0, len(publics)))
        publics[idx] = _rand_elem(rng, not_equal=publics[idx])
    elif action == 1:
        publics.append(_rand_elem(rng))
    elif publics:
        del publics[int(rng.integers(0, len(publics)))]
    else:
        return None
    return Mutant("perturb-public-input", data=target.encode(proof))


def perturb_degree_bits(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Lie about the trace degree (STARK only)."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "degree_bits"):
        return None
    new = int(rng.integers(0, 51))
    if new == proof.degree_bits:
        new = proof.degree_bits + 1
    proof.degree_bits = new
    return Mutant("perturb-degree-bits", data=target.encode(proof))


def splice_fri_proof(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Graft the FRI proof of a different honest proof onto this one."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "fri_proof"):
        return None
    donor = target.decode(target.alt_blob)
    proof.fri_proof = donor.fri_proof
    return Mutant("splice-fri-proof", data=target.encode(proof))


def pad_initial_leaf(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Append a zero column to one batch opening's rows.

    For leaves shorter than a digest, ``hash_or_noop`` zero-pads -- so
    the padded rows still authenticate against the commitment and only
    the verifier's exact leaf-width pin rejects them.
    """
    proof = target.decode(target.blob)
    if not hasattr(proof, "fri_proof"):
        return None
    ops = proof.fri_proof.batch_openings
    op = _choice(rng, ops)
    op.rows = np.concatenate([op.rows, np.zeros((op.rows.shape[0], 1), dtype=np.uint64)], axis=1)
    return Mutant("pad-initial-leaf", data=target.encode(proof))


def reshape_initial_leaf(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Serialize one batch opening's rows as a (1, k * w) matrix."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "fri_proof"):
        return None
    op = _choice(rng, proof.fri_proof.batch_openings)
    if op.rows.shape[0] < 2:
        return None
    op.rows = op.rows.reshape(1, -1)
    return Mutant("reshape-initial-leaf", data=target.encode(proof))


def truncate_coset_leaf(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Truncate one fold-layer opening's coset rows below full width."""
    proof = target.decode(target.blob)
    layers = _layer_openings(proof)
    if not layers:
        return None
    op = _choice(rng, layers)
    op.rows = np.ascontiguousarray(op.rows[:, : int(rng.integers(0, op.rows.shape[1]))])
    return Mutant("truncate-coset-leaf", data=target.encode(proof))


def swap_coset_values(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Swap two extension values inside one opened coset row."""
    proof = target.decode(target.blob)
    layers = _layer_openings(proof)
    if not layers:
        return None
    op = _choice(rng, layers)
    coset = op.rows[int(rng.integers(0, op.rows.shape[0]))].reshape(-1, 2)
    i, j = (int(k) for k in rng.choice(coset.shape[0], size=2, replace=False))
    if np.array_equal(coset[i], coset[j]):
        return None
    coset[[i, j]] = coset[[j, i]]
    return Mutant("swap-coset-values", data=target.encode(proof))


def arity2_shaped_leaf(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Open an arity-4 or -8 layer with 4-element (arity-2) rows.

    Each row keeps one honest ``(x, -x)`` pair of its coset (slots
    ``j`` and ``j + half``), shaped as an arity-2 prover would commit it.
    """
    proof = target.decode(target.blob)
    wide = [op for op in _layer_openings(proof) if op.rows.shape[1] > 4]
    if not wide:
        return None
    op = _choice(rng, wide)
    cosets = op.rows.reshape(op.rows.shape[0], -1, 2)
    half = cosets.shape[1] // 2
    j = int(rng.integers(0, half))
    op.rows = np.concatenate([cosets[:, j], cosets[:, j + half]], axis=1)
    return Mutant("arity2-shaped-leaf", data=target.encode(proof))


def permute_coset_rows(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Permute the LDE rows inside one opened initial coset leaf.

    Under coset leaves an initial leaf holds the LDE rows a virtual
    first FRI layer folds, one slot after another; reordered, it keeps
    every width and shape the verifier pins, so only the commitment's
    binding of the slot order can reject it.  A row is as wide as the
    batch's opened columns; batches of one row a leaf do not apply.
    """
    proof = target.decode(target.blob)
    if not hasattr(proof, "openings"):
        return None
    widths: Dict[int, int] = {}
    for cols in proof.openings.columns:
        for b, c in cols:
            widths[b] = max(widths.get(b, 0), c + 1)
    ops = proof.fri_proof.batch_openings
    picks = [
        (b, k)
        for b, w in widths.items()
        if ops[b].rows.shape[1] > w and ops[b].rows.shape[1] % w == 0
        for k in range(ops[b].rows.shape[0])
    ]
    if not picks:
        return None
    b, k = _choice(rng, picks)
    rows = ops[b].rows[k].reshape(-1, widths[b])
    order = rng.permutation(rows.shape[0])
    if np.array_equal(order, np.arange(rows.shape[0])):
        order = order[::-1]
    if np.array_equal(rows[order], rows):
        return None
    ops[b].rows[k] = rows[order].reshape(-1)
    return Mutant("permute-coset-rows", data=target.encode(proof))


# -- sumcheck mutators (hyperplonk-shaped proofs only) -------------------------


def tamper_sumcheck_round(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Perturb one half of one sumcheck round polynomial."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "sumcheck") or not proof.sumcheck.round_values:
        return None
    rounds = proof.sumcheck.round_values
    idx = int(rng.integers(0, len(rounds)))
    y0, y1 = rounds[idx]
    if int(rng.integers(0, 2)):
        rounds[idx] = (y0, _rand_elem(rng, not_equal=y1))
    else:
        rounds[idx] = (_rand_elem(rng, not_equal=y0), y1)
    return Mutant("tamper-sumcheck-round", data=target.encode(proof))


def perturb_final_value(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Lie about the sumcheck's fully-folded final evaluation."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "sumcheck"):
        return None
    sc = proof.sumcheck
    sc.final_value = _rand_elem(rng, not_equal=sc.final_value)
    return Mutant("perturb-final-value", data=target.encode(proof))


def perturb_claimed_sum(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Claim a nonzero zerocheck sum (honest proofs must claim zero)."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "sumcheck"):
        return None
    sc = proof.sumcheck
    sc.claimed_sum = _rand_elem(rng, not_equal=sc.claimed_sum)
    return Mutant("perturb-claimed-sum", data=target.encode(proof))


def perturb_z_opening(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Perturb one opened Z-tree row value in the batched opening."""
    proof = target.decode(target.blob)
    if not hasattr(proof, "sumcheck"):
        return None
    rows = proof.z_opening.rows
    if not rows.size:
        return None
    idx = int(rng.integers(0, rows.shape[0]))
    rows[idx, 0] = np.uint64(_rand_elem(rng, not_equal=int(rows[idx, 0])))
    return Mutant("perturb-z-opening", data=target.encode(proof))


def drop_opened_row(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Remove one index + row from a batched tree opening.

    The verifier re-derives the expected index set from the transcript,
    so a multiproof opening fewer positions than the queries touch must
    reject on the index-set comparison (before any hashing).
    """
    proof = target.decode(target.blob)
    ops = [op for op in _tree_openings(proof) if len(op.proof.indices) >= 2]
    if not ops:
        return None
    op = _choice(rng, ops)
    k = int(rng.integers(0, len(op.proof.indices)))
    op.proof.indices = op.proof.indices[:k] + op.proof.indices[k + 1 :]
    op.rows = np.delete(op.rows, k, axis=0)
    return Mutant("drop-opened-row", data=target.encode(proof))


def pad_opening_nodes(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Append a junk digest to a multiproof's shared node list.

    ``verify_multi`` demands the node cursor land exactly at the end of
    the list -- unconsumed nodes must reject even though every derived
    digest still matches the cap.
    """
    proof = target.decode(target.blob)
    op = _choice(rng, _tree_openings(proof))
    junk = np.array(
        [[_rand_elem(rng) for _ in range(4)]], dtype=np.uint64
    )
    op.proof.nodes = np.concatenate([op.proof.nodes, junk])
    return Mutant("pad-opening-nodes", data=target.encode(proof))


# -- object-level mutators (states the codec cannot express) -------------------


def mismatch_initial_proofs(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Hand the verifier fewer batch tree openings than batch caps.

    Object-level: a truncating ``zip`` of openings with caps would
    leave the last commitment unchecked, so the verifier must count
    the openings before it pairs them off.
    """
    proof = copy.deepcopy(target.decode(target.blob))
    if not hasattr(proof, "fri_proof"):
        return None
    proof.fri_proof.batch_openings = proof.fri_proof.batch_openings[:-1]
    return Mutant("mismatch-initial-proofs", proof=proof)


def scalar_coset_leaf(target: FuzzTarget, rng) -> Optional[Mutant]:
    """Replace one layer opening's rows with a 0-d array (slicing would crash)."""
    proof = copy.deepcopy(target.decode(target.blob))
    layers = _layer_openings(proof)
    if not layers:
        return None
    _choice(rng, layers).rows = np.uint64(_rand_elem(rng)).reshape(())
    return Mutant("scalar-coset-leaf", proof=proof)


#: The full mutation catalogue, keyed by stable artifact-facing names.
MUTATORS: Dict[str, Callable[[FuzzTarget, np.random.Generator], Optional[Mutant]]] = {
    "bit-flip": bit_flip,
    "truncate-bytes": truncate_bytes,
    "extend-bytes": extend_bytes,
    "stomp-u32": stomp_u32,
    "zero-window": zero_window,
    "splice-proofs": splice_proofs,
    "flip-field-element": flip_field_element,
    "perturb-opening-value": perturb_opening_value,
    "swap-opening-points": swap_opening_points,
    "swap-cap-entries": swap_cap_entries,
    "truncate-cap": truncate_cap,
    "drop-sibling-node": drop_sibling_node,
    "duplicate-opened-row": duplicate_opened_row,
    "swap-opened-rows": swap_opened_rows,
    "drop-layer": drop_layer,
    "duplicate-layer": duplicate_layer,
    "resize-final-poly": resize_final_poly,
    "corrupt-pow-witness": corrupt_pow_witness,
    "perturb-public-input": perturb_public_input,
    "perturb-degree-bits": perturb_degree_bits,
    "splice-fri-proof": splice_fri_proof,
    "pad-initial-leaf": pad_initial_leaf,
    "reshape-initial-leaf": reshape_initial_leaf,
    "truncate-coset-leaf": truncate_coset_leaf,
    "swap-coset-values": swap_coset_values,
    "arity2-shaped-leaf": arity2_shaped_leaf,
    "permute-coset-rows": permute_coset_rows,
    "tamper-sumcheck-round": tamper_sumcheck_round,
    "perturb-final-value": perturb_final_value,
    "perturb-claimed-sum": perturb_claimed_sum,
    "perturb-z-opening": perturb_z_opening,
    "drop-opened-row": drop_opened_row,
    "pad-opening-nodes": pad_opening_nodes,
    "mismatch-initial-proofs": mismatch_initial_proofs,
    "scalar-coset-leaf": scalar_coset_leaf,
}

#: Stable ordering for seeded mutator choice.
MUTATOR_NAMES = tuple(MUTATORS)
