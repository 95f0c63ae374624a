"""Image Crop workload (paper app 5): authenticated image editing.

The paper proves that a 512x512 block was cropped from the top-left of
a 1024x1024 RGBA PNG (plonky2-zkedit).  The in-circuit work is a
selection proof: the published crop equals the corresponding region of
a privately-held image whose digest is public.

Substitution: PNG decoding stays outside the circuit (it does in
zkedit, too); we prove the selection over raw pixel values, binding the
private image with the same algebraic digest used by the SHA-256
workload, and exposing the crop through public inputs.
"""

from __future__ import annotations

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from .base import PlonkParams, WorkloadSpec
from .sha256 import hash_reference


def build_circuit(scale: int):
    """Prove a ``scale x scale`` crop of a private ``2*scale x 2*scale``
    image, binding the image with a public digest."""
    size = 2 * scale
    b = CircuitBuilder()
    image_vars = [[b.add_variable() for _ in range(size)] for _ in range(size)]
    # Bind the whole private image to a public digest.
    flat = [image_vars[r][c] for r in range(size) for c in range(size)]
    state = b.constant(0)
    alpha = b.constant(5)
    for v in flat:
        t = b.add(state, v)
        t2 = b.mul(t, t)
        state = b.add(b.mul(t2, alpha), state)
    digest = b.public_input()
    b.assert_equal(digest, state)
    # The crop (top-left scale x scale) is public.
    crop_pubs = []
    for r in range(scale):
        for c in range(scale):
            pub = b.public_input()
            b.assert_equal(pub, image_vars[r][c])
            crop_pubs.append(pub)
    circuit = b.build()

    # Witness: a deterministic "image".
    pixels = [[(r * 31 + c * 7 + 13) % 251 for c in range(size)] for r in range(size)]
    inputs = {}
    for r in range(size):
        for c in range(size):
            inputs[image_vars[r][c].index] = pixels[r][c]
    state_val = 0
    for r in range(size):
        for c in range(size):
            t = gl.add(state_val, pixels[r][c])
            state_val = gl.add(gl.mul(gl.mul(t, t), 5), state_val)
    publics = [state_val]
    inputs[digest.index] = state_val
    for pub, (r, c) in zip(
        crop_pubs, [(r, c) for r in range(scale) for c in range(scale)]
    ):
        inputs[pub.index] = pixels[r][c]
        publics.append(pixels[r][c])
    return circuit, inputs, publics


SPEC = WorkloadSpec(
    name="Image Crop",
    plonk=PlonkParams(name="Image Crop", degree_bits=19, width=160),
    build_circuit=build_circuit,
    repro_note=(
        "Paper: crop a 512x512 block from a 1024x1024 RGBA PNG "
        "(plonky2-zkedit). Ours: the same select-and-bind proof over raw "
        "pixels with an algebraic image digest; PNG decoding is outside "
        "the circuit in both."
    ),
)
