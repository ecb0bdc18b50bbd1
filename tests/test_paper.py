"""Smoke tests for the one-call paper reproduction."""

import pytest

from repro.cli import main
from repro.paper import PaperScales, reproduce_paper

EVOLUTION_SCALE = 1 / 2_000_000


@pytest.fixture(scope="module")
def results():
    scales = PaperScales(
        evolution=EVOLUTION_SCALE,
        traffic_connections_per_day=60,
        hosting=1 / 200_000,
        domains=1 / 20_000,
        enumeration_domains=1 / 50_000,
        phishing=1 / 1_000,
    )
    return reproduce_paper(seed=3, scales=scales)


def test_all_sections_render(results):
    sections = results.sections()
    assert len(sections) == 14
    combined = results.render()
    for marker in (
        "Figure 1a", "Figure 1c", "Figure 2", "Table 1",
        "Section 3.2", "Section 3.3", "Section 3.4",
        "Table 2", "Section 4.3", "Table 3", "CT log entry",
        "threat intelligence",
    ):
        assert marker in combined, marker


def test_headline_results_present(results):
    assert results.misissuance_report.invalid_certificate_count == 16
    assert len(results.honeypot.domains) == 11
    assert results.traffic_stats.total > 0
    assert results.enumeration_report.discovered > 0
    assert results.phishing_report.count("Apple") > 0


def test_scales_are_respected(results):
    # Tiny scales => tiny simulated populations.
    assert results.scan_stats.unique_certificates < 1_000
    assert results.leakage_stats.unique_fqdns < 50_000


def test_section2_equals_cli_sec2(results, capsys):
    """§2 is one fused traversal, rendered exactly as ``repro sec2``."""
    assert main(["sec2", "--scale", repr(EVOLUTION_SCALE), "--seed", "3"]) == 0
    sec2 = capsys.readouterr().out
    assert sec2 == "\n\n".join(results.sections()[:4]) + "\n"
