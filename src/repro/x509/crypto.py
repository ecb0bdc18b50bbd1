"""Lightweight but genuine cryptography for the simulation.

CT log signatures must be *verifiable* for the reproduction to exercise
the paper's Section 3.4 pipeline (detecting invalid embedded SCTs by
reconstructing the precertificate and checking the log's signature).
We therefore implement a real textbook-RSA signature scheme over
SHA-256 digests with deterministic key generation:

* keys are generated from a seed string, so the whole simulated PKI is
  reproducible;
* primes come from a Miller-Rabin search seeded by SHA-256 counters;
* signing computes ``digest^d mod n`` over a full-domain-hash style
  padding through the Chinese Remainder Theorem: two half-size
  exponentiations mod ``p`` and ``q``, recombined with Garner's formula
  into the same integer, so every signature byte equals the textbook
  full-modulus result at about half the cost or less;
* verification recomputes ``sig^e mod n``.

512-bit moduli keep operations fast; this is a simulation, not a
production credential system, and the scheme is used only for
integrity of the simulated artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

DEFAULT_KEY_BITS = 512
_E = 65537

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def _is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Deterministic-witness Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic witness schedule derived from n keeps keygen reproducible.
    for i in range(rounds):
        seed = hashlib.sha256(f"mr:{n}:{i}".encode()).digest()
        a = 2 + int.from_bytes(seed, "big") % (n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _derive_prime(seed: str, bits: int) -> int:
    """Find the first probable prime in a hash-derived counter sequence."""
    counter = 0
    while True:
        material = b""
        block = 0
        while len(material) * 8 < bits:
            material += hashlib.sha256(
                f"prime:{seed}:{counter}:{block}".encode()
            ).digest()
            block += 1
        candidate = int.from_bytes(material, "big")
        candidate |= 1 << (bits - 1)  # ensure full bit length
        candidate |= 1  # ensure odd
        candidate &= (1 << bits) - 1
        if candidate % _E == 1:
            counter += 1
            continue
        if _is_probable_prime(candidate):
            return candidate
        counter += 1


@dataclass(frozen=True)
class KeyPair:
    """An RSA keypair with deterministic provenance.

    Attributes
    ----------
    n, e:
        Public modulus and exponent.
    d:
        Private exponent (kept here because the whole PKI is simulated).
    key_id:
        SHA-256 of the serialized public key; CT uses exactly this as
        the LogID in SCTs (RFC 6962 section 3.2).
    p, q, dp, dq, q_inv:
        Private CRT parameters derived once at generation: the primes
        (``n = p*q``), ``d mod (p-1)``, ``d mod (q-1)`` and ``q^-1 mod
        p``.  They are left out of ``repr``, equality and hashing, which
        depend on the fields above alone.
    """

    n: int
    e: int
    d: int
    key_id: bytes
    p: int = field(repr=False, compare=False)
    q: int = field(repr=False, compare=False)
    dp: int = field(repr=False, compare=False)
    dq: int = field(repr=False, compare=False)
    q_inv: int = field(repr=False, compare=False)

    @classmethod
    def generate(cls, seed: str, bits: int = DEFAULT_KEY_BITS) -> "KeyPair":
        """Deterministically generate a keypair from ``seed``."""
        half = bits // 2
        p = _derive_prime(f"{seed}:p", half)
        q = _derive_prime(f"{seed}:q", half)
        while q == p:  # pragma: no cover - astronomically unlikely
            q = _derive_prime(f"{seed}:q2", half)
        n = p * q
        phi = (p - 1) * (q - 1)
        d = pow(_E, -1, phi)
        key_id = sha256(cls._serialize_public(n, _E))
        return cls(
            n=n, e=_E, d=d, key_id=key_id, p=p, q=q,
            dp=d % (p - 1), dq=d % (q - 1), q_inv=pow(q, -1, p),
        )

    @staticmethod
    def _serialize_public(n: int, e: int) -> bytes:
        n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
        e_bytes = e.to_bytes((e.bit_length() + 7) // 8, "big")
        return (
            len(n_bytes).to_bytes(2, "big")
            + n_bytes
            + len(e_bytes).to_bytes(2, "big")
            + e_bytes
        )

    def public_bytes(self) -> bytes:
        """Serialized public key (input to the key id)."""
        return self._serialize_public(self.n, self.e)


def _encode_digest(message: bytes, n: int) -> int:
    """Full-domain-hash style encoding of a message below the modulus."""
    target_len = (n.bit_length() + 7) // 8 - 1
    material = b""
    block = 0
    while len(material) < target_len:
        material += hashlib.sha256(bytes([block]) + message).digest()
        block += 1
    return int.from_bytes(material[:target_len], "big")


def sign(key: KeyPair, message: bytes) -> bytes:
    """Sign ``message`` with the private key; returns fixed-width bytes.

    Equal to ``pow(encoded, d, n)``, computed mod ``p`` and mod ``q``
    and recombined (Garner).
    """
    encoded = _encode_digest(message, key.n)
    s_p = pow(encoded, key.dp, key.p)
    s_q = pow(encoded, key.dq, key.q)
    signature = s_q + key.q * (key.q_inv * (s_p - s_q) % key.p)
    width = (key.n.bit_length() + 7) // 8
    return signature.to_bytes(width, "big")


def verify(key: KeyPair, message: bytes, signature: bytes) -> bool:
    """Verify a signature produced by :func:`sign` using only public parts."""
    width = (key.n.bit_length() + 7) // 8
    if len(signature) != width:
        return False
    sig_int = int.from_bytes(signature, "big")
    if sig_int >= key.n:
        return False
    recovered = pow(sig_int, key.e, key.n)
    return recovered == _encode_digest(message, key.n)
