"""Property-based tests for the signature scheme and SCT integrity."""

from hypothesis import given, settings, strategies as st

from repro.ct.sct import SctEntryType, SignedCertificateTimestamp, encode_sct_list
from repro.x509.crypto import KeyPair, _encode_digest, sign, verify

KEY = KeyPair.generate("property-test-key", 256)
OTHER = KeyPair.generate("property-test-other", 256)
CRT_KEYS = {
    bits: KeyPair.generate(f"property-crt-{bits}", bits)
    for bits in (128, 256, 384, 512, 1024)
}


@given(bits=st.sampled_from(sorted(CRT_KEYS)), message=st.binary(max_size=200))
@settings(max_examples=60, deadline=None)
def test_crt_sign_equals_full_modulus_exponentiation(bits, message):
    key = CRT_KEYS[bits]
    width = (key.n.bit_length() + 7) // 8
    textbook = pow(_encode_digest(message, key.n), key.d, key.n)
    assert sign(key, message) == textbook.to_bytes(width, "big")


@given(message=st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_sign_verify_roundtrip(message):
    assert verify(KEY, message, sign(KEY, message))


@given(message=st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_cross_key_never_verifies(message):
    assert not verify(OTHER, message, sign(KEY, message))


@given(message=st.binary(min_size=1, max_size=200), flip=st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_message_tamper_never_verifies(message, flip):
    signature = sign(KEY, message)
    index = flip % len(message)
    tampered = bytearray(message)
    tampered[index] ^= 0x01
    assert not verify(KEY, bytes(tampered), signature)


@given(message=st.binary(max_size=100), flip=st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_signature_tamper_never_verifies(message, flip):
    signature = bytearray(sign(KEY, message))
    signature[flip % len(signature)] ^= 0x01
    assert not verify(KEY, message, bytes(signature))


sct_strategy = st.builds(
    lambda ts, ext, entry: _make_sct(ts, ext, entry),
    ts=st.integers(min_value=0, max_value=2**40),
    ext=st.binary(max_size=16),
    entry=st.binary(max_size=64),
)


def _make_sct(ts, ext, entry):
    payload = SignedCertificateTimestamp.signed_payload(
        KEY.key_id, ts, SctEntryType.PRECERT_ENTRY, entry, ext
    )
    return (
        SignedCertificateTimestamp(
            log_id=KEY.key_id,
            timestamp_ms=ts,
            entry_type=SctEntryType.PRECERT_ENTRY,
            signature=sign(KEY, payload),
            extensions=ext,
        ),
        entry,
    )


@given(items=st.lists(sct_strategy, min_size=0, max_size=6))
@settings(max_examples=40, deadline=None)
def test_sct_list_roundtrip(items):
    scts = [sct for sct, _ in items]
    decoded = SignedCertificateTimestamp.decode_list(encode_sct_list(scts))
    assert decoded == scts


@given(item=sct_strategy)
@settings(max_examples=40, deadline=None)
def test_sct_verifies_only_its_entry(item):
    sct, entry = item
    assert sct.verify(KEY, entry)
    assert not sct.verify(KEY, entry + b"x")
