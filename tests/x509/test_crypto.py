"""Tests for the deterministic small-RSA scheme."""

from math import lcm

import pytest

from repro.x509.crypto import KeyPair, sha256, sign, verify

#: ``sign(KeyPair.generate("crt-golden", 512), GOLDEN_MESSAGE)`` as the
#: full-modulus ``pow(m, d, n)`` signer produced it before CRT signing.
GOLDEN_MESSAGE = b"certificate transparency: crt golden"
GOLDEN_SIGNATURE = (
    "4faa8fefc90e82d338f587e81f29d5fcbeef2b069b591c786b7997e70995ee80"
    "34df02124b1854eaf119468a3d16dd9035d08c42971c8f64d8a4e8130230e383"
)


@pytest.fixture(scope="module")
def key():
    return KeyPair.generate("unit-test-key", 256)


def test_keygen_deterministic():
    a = KeyPair.generate("seed-a", 256)
    b = KeyPair.generate("seed-a", 256)
    assert a.n == b.n and a.d == b.d and a.key_id == b.key_id


def test_different_seeds_different_keys():
    a = KeyPair.generate("seed-a", 256)
    b = KeyPair.generate("seed-b", 256)
    assert a.n != b.n


def test_modulus_bit_length(key):
    assert key.n.bit_length() == 256


def test_key_id_is_sha256_of_public_bytes(key):
    assert key.key_id == sha256(key.public_bytes())
    assert len(key.key_id) == 32


def test_sign_verify_roundtrip(key):
    message = b"hello ct"
    signature = sign(key, message)
    assert verify(key, message, signature)


def test_verify_rejects_tampered_message(key):
    signature = sign(key, b"original")
    assert not verify(key, b"tampered", signature)


def test_verify_rejects_tampered_signature(key):
    signature = bytearray(sign(key, b"msg"))
    signature[0] ^= 0xFF
    assert not verify(key, b"msg", bytes(signature))


def test_verify_rejects_wrong_length(key):
    assert not verify(key, b"msg", b"\x00" * 5)


def test_verify_rejects_signature_ge_modulus(key):
    width = (key.n.bit_length() + 7) // 8
    too_big = key.n.to_bytes(width, "big")
    assert not verify(key, b"msg", too_big)


def test_cross_key_rejection(key):
    other = KeyPair.generate("another-key", 256)
    signature = sign(key, b"msg")
    assert not verify(other, b"msg", signature)


def test_signature_width_is_fixed(key):
    width = (key.n.bit_length() + 7) // 8
    for message in (b"", b"a", b"x" * 1000):
        assert len(sign(key, message)) == width


def test_empty_message_roundtrip(key):
    signature = sign(key, b"")
    assert verify(key, b"", signature)


def test_default_bits_is_512():
    key = KeyPair.generate("default-bits")
    assert key.n.bit_length() == 512


def test_rsa_identity_holds(key):
    assert key.p * key.q == key.n
    assert key.e * key.d % lcm(key.p - 1, key.q - 1) == 1


def test_signature_matches_pre_crt_golden():
    key = KeyPair.generate("crt-golden", 512)
    assert sign(key, GOLDEN_MESSAGE).hex() == GOLDEN_SIGNATURE


def test_key_identity_ignores_crt_fields():
    a = KeyPair.generate("seed-a", 256)
    b = KeyPair.generate("seed-a", 256)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == (
        f"KeyPair(n={a.n!r}, e={a.e!r}, d={a.d!r}, key_id={a.key_id!r})"
    )
    for secret in (a.p, a.q, a.dp, a.dq, a.q_inv):
        assert str(secret) not in repr(a)
