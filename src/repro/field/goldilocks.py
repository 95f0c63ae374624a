"""Scalar (Python-int) arithmetic in the Goldilocks field.

The Goldilocks field is GF(p) with ``p = 2**64 - 2**32 + 1``.  Plonky2 and
Starky perform all base-field arithmetic here because the special shape of
``p`` makes 64-bit modular reduction cheap in hardware -- the very property
UniZK's processing elements exploit (one 64-bit modular multiplier plus two
modular adders per PE).

This module is the *reference* implementation: simple, obviously correct
Python integers.  The vectorised NumPy implementation in
:mod:`repro.field.gl64` is checked against it in the test-suite.
"""

from __future__ import annotations

from functools import lru_cache

#: The Goldilocks prime, ``2**64 - 2**32 + 1``.
P = 0xFFFF_FFFF_0000_0001

#: ``2**32 - 1``; satisfies ``2**64 = EPSILON (mod P)`` and
#: ``2**96 = -1 (mod P)``, the identities behind fast reduction.
EPSILON = 0xFFFF_FFFF

#: The multiplicative group has order ``p - 1 = 2**32 * (2**32 - 1)``,
#: so the field supports NTTs of any power-of-two size up to ``2**32``.
TWO_ADICITY = 32

#: Odd prime factors of ``p - 1`` (``2**32 - 1 = 3 * 5 * 17 * 257 * 65537``).
_ODD_FACTORS = (3, 5, 17, 257, 65537)


def canonical(a: int) -> int:
    """Reduce an arbitrary Python int to its canonical representative.

    The sanctioned scalar coercion for code outside ``repro.field``:
    the ``prover.raw-mod`` source rule (``tests/test_source_rules.py``)
    fails on an ad-hoc ``% P`` reduction anywhere else.
    """
    return a % P


def add(a: int, b: int) -> int:
    """Return ``a + b (mod p)``."""
    s = a + b
    return s - P if s >= P else s


def sub(a: int, b: int) -> int:
    """Return ``a - b (mod p)``."""
    d = a - b
    return d + P if d < 0 else d


def neg(a: int) -> int:
    """Return ``-a (mod p)``."""
    return 0 if a == 0 else P - a


def mul(a: int, b: int) -> int:
    """Return ``a * b (mod p)``."""
    return a * b % P


def square(a: int) -> int:
    """Return ``a**2 (mod p)``."""
    return a * a % P


def pow_mod(a: int, e: int) -> int:
    """Return ``a**e (mod p)``; negative exponents invert first."""
    if e < 0:
        return pow(inverse(a), -e, P)
    return pow(a, e, P)


def inverse(a: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``p``.

    Raises :class:`ZeroDivisionError` for ``a == 0``.
    """
    if a % P == 0:
        raise ZeroDivisionError("0 has no inverse in GF(p)")
    return pow(a, P - 2, P)


def exp_power_of_2(a: int, log_exp: int) -> int:
    """Return ``a**(2**log_exp) (mod p)`` by repeated squaring."""
    for _ in range(log_exp):
        a = square(a)
    return a


@lru_cache(maxsize=1)
def multiplicative_generator() -> int:
    """Return the smallest generator of the multiplicative group of GF(p).

    A candidate ``g`` generates the full group iff ``g**((p-1)/q) != 1``
    for every prime ``q`` dividing ``p - 1``.  The result is also used as
    the coset shift for low-degree extensions (Plonky2 uses the same
    convention).
    """
    order = P - 1
    for g in range(2, 100):
        if pow(g, order // 2, P) == 1:
            continue
        if any(pow(g, order // q, P) == 1 for q in _ODD_FACTORS):
            continue
        return g
    raise RuntimeError("no generator found below 100 (unreachable)")


#: Coset shift used for low degree extensions (a multiplicative generator,
#: guaranteeing the LDE coset is disjoint from the base subgroup).
def coset_shift() -> int:
    """Return the multiplicative coset shift ``g`` used by LDE."""
    return multiplicative_generator()


@lru_cache(maxsize=None)
def primitive_root_of_unity(log_n: int) -> int:
    """Return a primitive ``2**log_n``-th root of unity.

    Derived from the group generator, so
    ``primitive_root_of_unity(k) ** 2 == primitive_root_of_unity(k - 1)``.
    """
    if not 0 <= log_n <= TWO_ADICITY:
        raise ValueError(f"log_n must be in [0, {TWO_ADICITY}], got {log_n}")
    base = pow(multiplicative_generator(), (P - 1) >> TWO_ADICITY, P)
    return exp_power_of_2(base, TWO_ADICITY - log_n)
