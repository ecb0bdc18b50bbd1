"""Property-based tests for the extension substrates (chains, redaction)."""

from hypothesis import given, settings, strategies as st

from repro.ct.redaction import RedactionPolicy, redact_name
from repro.dnscore.psl import default_psl
from repro.util.timeutil import utc_datetime
from repro.x509.ca import IssuanceRequest

NOW = utc_datetime(2018, 4, 1)

label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)


@given(
    labels=st.lists(label, min_size=0, max_size=4),
    keep=st.lists(label, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_redaction_preserves_structure(labels, keep):
    """Redaction never changes the label count or registrable domain."""
    psl = default_psl()
    name = ".".join(labels + ["propbase", "co", "uk"])
    policy = RedactionPolicy(keep_labels=tuple(keep))
    redacted = redact_name(name, policy, psl)
    original_split = psl.split(name)
    redacted_split = psl.split(redacted)
    assert len(redacted_split[0]) == len(original_split[0])
    assert redacted_split[1] == original_split[1]
    # Kept labels survive verbatim; others become the placeholder.
    for original, out in zip(original_split[0], redacted_split[0]):
        if original in keep:
            assert out == original
        else:
            assert out == "?"


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_chain_validation_total_for_any_hierarchy(seed):
    """Any freshly built hierarchy produces chains that validate."""
    from repro.x509.chain import CaHierarchy, validate_chain

    hierarchy = CaHierarchy(f"Brand{seed}")
    intermediate = hierarchy.add_intermediate(
        f"Brand{seed} CA", not_before=utc_datetime(2016, 1, 1)
    )
    pair = intermediate.issue(
        IssuanceRequest((f"h{seed}.example",), embed_scts=False), [], NOW
    )
    chain = hierarchy.chain_for(pair.final_certificate)
    result = validate_chain(
        chain,
        {hierarchy.root_certificate.subject_cn: hierarchy.root_key},
        NOW,
        known_keys=hierarchy.keys_by_subject(),
    )
    assert result.valid, result.reasons
