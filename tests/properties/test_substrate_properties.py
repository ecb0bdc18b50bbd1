"""Property-based tests for the newer substrates (rDNS)."""

from hypothesis import given, settings, strategies as st

from repro.dnscore.rdns import ReverseZone, ipv6_ptr_name, ipv6_to_nibbles, walk_rdns_tree

ipv6_strategy = st.lists(
    st.integers(0, 0xFFFF), min_size=8, max_size=8
).map(lambda groups: ":".join(f"{g:x}" for g in groups))


@given(address=ipv6_strategy)
@settings(max_examples=80, deadline=None)
def test_ptr_name_structure(address):
    name = ipv6_ptr_name(address)
    parts = name.split(".")
    assert len(parts) == 34  # 32 nibbles + ip6 + arpa
    assert parts[-2:] == ["ip6", "arpa"]
    assert len(ipv6_to_nibbles(address)) == 32


@given(
    addresses=st.lists(
        st.integers(1, 0xFFFF).map(lambda n: f"2001:db8::{n:x}"),
        min_size=1,
        max_size=20,
        unique=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_rdns_walk_finds_exactly_the_published_set(addresses):
    zone = ReverseZone()
    expected = {}
    for index, address in enumerate(addresses):
        owner = zone.add_ptr(address, f"h{index}.example")
        expected[owner] = f"h{index}.example"
    result = walk_rdns_tree(zone, [])
    assert result.discovered == expected
