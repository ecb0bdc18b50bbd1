"""Tests for FQDN syntax validation."""

import pytest

from repro.dnscore.name import (
    is_subdomain_of,
    is_valid_fqdn,
    is_valid_label,
    normalize_name,
    random_control_label,
    split_labels,
)
from repro.util.rng import SeededRng


class TestValidity:
    @pytest.mark.parametrize("name", [
        "example.org",
        "www.example.org",
        "a-b.example.co.uk",
        "xn--idn.example.de",
        "123start.example.com",  # RFC 1123 allows leading digits
        "EXAMPLE.ORG",
        "example.org.",
    ])
    def test_valid(self, name):
        assert is_valid_fqdn(name)

    @pytest.mark.parametrize("name", [
        "",
        "localhost",                      # single label
        "-dash.example.org",              # leading hyphen
        "dash-.example.org",              # trailing hyphen
        "under_score.example.org",        # underscore
        "spa ce.example.org",
        "example.123",                    # all-numeric TLD
        "example.-org",
        "." * 300,
        ("a" * 64) + ".example.org",      # label too long
        "a." * 130 + "org",               # name too long
        "*.example.org",                  # wildcard without allow flag
    ])
    def test_invalid(self, name):
        assert not is_valid_fqdn(name)

    def test_wildcard_allowed_when_requested(self):
        assert is_valid_fqdn("*.example.org", allow_wildcard=True)
        assert not is_valid_fqdn("*.org", allow_wildcard=True)
        assert not is_valid_fqdn("a.*.example.org", allow_wildcard=True)

    def test_max_length_boundary(self):
        # 253 characters exactly: valid.
        label = "a" * 49
        name = ".".join([label] * 5) + ".org"  # 49*5 + 4 + 4 = 253
        assert len(name) == 253
        assert is_valid_fqdn(name)
        assert not is_valid_fqdn("x" + name)


def test_normalize_name():
    assert normalize_name("  WWW.Example.ORG. ") == "www.example.org"


def test_split_labels():
    assert split_labels("a.b.c") == ["a", "b", "c"]
    assert split_labels("") == []


def test_is_valid_label():
    assert is_valid_label("abc-123")
    assert not is_valid_label("")
    assert not is_valid_label("a" * 64)
    assert not is_valid_label("-x")


def test_is_subdomain_of():
    assert is_subdomain_of("www.example.org", "example.org")
    assert is_subdomain_of("example.org", "example.org")
    assert not is_subdomain_of("evilexample.org", "example.org")
    assert not is_subdomain_of("example.org", "www.example.org")


def test_random_control_label_properties():
    rng = SeededRng(1)
    label = random_control_label(rng)
    assert len(label) == 16
    assert is_valid_label(label)
