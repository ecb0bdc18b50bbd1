"""RSA-CRT signing against the textbook full-modulus exponentiation.

:func:`repro.x509.crypto.sign` computes ``digest^d mod n`` as two
half-size exponentiations mod ``p`` and ``q`` recombined with Garner's
formula.  This benchmark times it against the textbook signer written
out below (``pow(m, d, n)`` over the whole modulus), which stays as the
reference: every timed call's output must be byte-identical between
the two.

The gate is a same-process ratio of paired timings, so it holds on any
machine and is enforced in smoke mode too: on the default 512-bit key
the CRT signer must take at most ``MAX_RATIO`` of the textbook time.
Each of ``ROUNDS`` rounds times ``CALLS`` signatures per side back to
back, alternating which side goes first; each side's per-call time is
its minimum over the rounds, since host noise only ever inflates a
round.
"""

import os
import platform
import time

from conftest import record_artifact

from repro.x509 import crypto

KEY_BITS = (256, 512, 1024)
GATED_BITS = crypto.DEFAULT_KEY_BITS
ROUNDS = 7
CALLS = 40
MAX_RATIO = 0.6


def _textbook_sign(key, message):
    """The full-modulus reference: ``pow(m, d, n)``, fixed-width bytes."""
    width = (key.n.bit_length() + 7) // 8
    encoded = crypto._encode_digest(message, key.n)
    return pow(encoded, key.d, key.n).to_bytes(width, "big")


def _timed(signer, key, messages):
    started = time.perf_counter()
    signatures = [signer(key, message) for message in messages]
    return (time.perf_counter() - started) / len(messages), signatures


def _best_per_call(key):
    """Minimum per-call seconds of (CRT, textbook) over paired rounds."""
    messages = [f"bench-crypto {i}".encode() for i in range(CALLS)]
    best = {crypto.sign: float("inf"), _textbook_sign: float("inf")}
    for round_index in range(ROUNDS):
        order = list(best)[:: -1 if round_index % 2 else 1]
        outputs = []
        for signer in order:
            seconds, signatures = _timed(signer, key, messages)
            best[signer] = min(best[signer], seconds)
            outputs.append(signatures)
        assert outputs[0] == outputs[1], "CRT and textbook signatures differ"
    return best[crypto.sign], best[_textbook_sign]


def test_bench_crt_signing():
    sizes = {}
    for bits in KEY_BITS:
        key = crypto.KeyPair.generate(f"bench-crypto-{bits}", bits)
        crt, textbook = _best_per_call(key)
        sizes[str(bits)] = {
            "sign_ms": crt * 1e3,
            "textbook_ms": textbook * 1e3,
            "ratio": crt / textbook,
        }
    ratio = sizes[str(GATED_BITS)]["ratio"]
    assert ratio <= MAX_RATIO, (
        f"CRT signing takes {ratio:.2f}x the textbook exponentiation on "
        f"{GATED_BITS}-bit keys; the gate is {MAX_RATIO:.2f}x"
    )

    lines = [
        f"RSA-CRT signing vs textbook pow(m, d, n) — min of {ROUNDS} "
        f"paired rounds x {CALLS} signatures",
        f"  {'bits':>6} {'crt ms':>9} {'textbook ms':>12} {'ratio':>7}",
    ]
    for bits, row in sizes.items():
        lines.append(
            f"  {bits:>6} {row['sign_ms']:9.3f} {row['textbook_ms']:12.3f} "
            f"{row['ratio']:7.2f}"
        )
    lines.append(f"  gate         {GATED_BITS}-bit ratio <= {MAX_RATIO:.2f}")
    record_artifact(
        "crypto",
        "\n".join(lines),
        data={
            "rounds": ROUNDS,
            "calls": CALLS,
            "gated_bits": GATED_BITS,
            "ratio": ratio,
            "max_ratio": MAX_RATIO,
            "sizes": sizes,
            # Strings: the regression diff checks their type only, and a
            # machine descriptor differs from host to host by design.
            "machine": {
                "nproc": str(os.cpu_count()),
                "python": platform.python_version(),
            },
        },
    )
