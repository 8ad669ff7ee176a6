"""Dual certificates: extraction, verification, certify, serialization."""

from __future__ import annotations

import random

import pytest

from popmax import (
    CertificateError,
    DualCertificate,
    NotMaximumError,
    NotPopularError,
    NotStableError,
    ParseError,
    build_gstar,
    certify_popular_max,
    extract_certificate,
    gale_shapley,
    levels,
    make_matching,
    parse_certificate,
    parse_instance,
    popular_max_matching,
    project,
    random_instance,
    serialize_certificate,
    verify_certificate,
    verify_popular_max,
)
from popmax.oracle import brute_popular_max, enumerate_stable

from conftest import mk, random_cases


def test_extract_single_level(i0):
    gs = build_gstar(i0)
    cert = extract_certificate(gs, gale_shapley(gs.inner))
    assert cert.alpha == {"a": 0, "b": 0}
    assert cert.n0_prime == 1


def test_extract_i1(i1):
    gs = build_gstar(i1)
    cert = extract_certificate(gs, gale_shapley(gs.inner))
    assert cert.alpha == {"a1": -2, "b1": 2, "a2": 0, "b2": 0}


def test_extract_i3_compresses_levels(i3):
    # the only stable matching of the derived instance parks the matched
    # pair at the top copy; one matched pair forces alpha to zero.
    gs = build_gstar(i3)
    cert = extract_certificate(gs, gale_shapley(gs.inner))
    assert cert.alpha == {"a1": 0, "b1": 0}
    assert cert.n0_prime == 1


def test_verify_good_certificate(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    cert = DualCertificate({"a1": -2, "a2": 0, "b1": 2, "b2": 0}, 2)
    assert verify_certificate(i1, m, cert).ok


def test_verify_all_zero_fails_feasibility(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    report = verify_certificate(i1, m, DualCertificate({"a1": 0, "a2": 0, "b1": 0, "b2": 0}, 2))
    assert not report.ok
    assert any(v.startswith("F:") and "(a2,b1)" in v for v in report.violations)


def test_unstable_preimage_and_infeasible_certificate_are_refused(i1):
    """Reading levels needs a stable matching of the derived instance, and
    lifting needs a certificate that verifies: a2#1 and b1~ block s, and
    the all-zero certificate fails (F) at (a2,b1)."""
    from popmax import lift

    gs = build_gstar(i1)
    s = make_matching(gs.inner, [("a1#0", "b1~"), ("a2#1", "b2~"),
                                 ("a1#1", "a1!d1"), ("a2#0", "a2!d1")])
    with pytest.raises(NotStableError):
        levels(gs, s)
    with pytest.raises(NotStableError):
        extract_certificate(gs, s)
    zero = DualCertificate({"a1": 0, "a2": 0, "b1": 0, "b2": 0}, 2)
    with pytest.raises(CertificateError) as err:
        lift(i1, popular_max_matching(i1), zero)
    assert any(v.startswith("F:") and v.endswith("at (a2,b1)") for v in err.value.violations)


def test_lift_reports_an_unstable_lift_as_internal(i1, monkeypatch):
    """A certificate that verifies always lifts to a stable matching, so a
    lift that is not stable is an `InternalError`, not a verdict on the
    matching: made here by accepting the all-zero certificate, which fails
    (F) at (a2,b1)."""
    from popmax import CertificateReport, InternalError, certificates, lift

    monkeypatch.setattr(certificates, "verify_certificate", lambda *_args: CertificateReport(True, ()))
    zero = DualCertificate({"a1": 0, "a2": 0, "b1": 0, "b2": 0}, 2)
    with pytest.raises(InternalError):
        lift(i1, popular_max_matching(i1), zero)


def test_verify_rejects_edge_to_unmatched_node():
    """F also holds on edges with one unmatched endpoint: a1 prefers the
    unmatched b4 to its partner b5, so the all-zero certificate must fail
    on (a1,b4), as the oracle and the popularity verifier reject M."""
    from popmax import parse_instance

    inst = parse_instance(
        "side A a1 a2\nside B b1 b2 b3 b4 b5\n"
        "pref a1: b4 b1 b3 b5\npref a2: b2 b1 b5 b3 b4\n"
        "pref b1: a2 a1\npref b2: a2\npref b3: a1 a2\npref b4: a2 a1\npref b5: a2 a1\n")
    m = mk(inst, ("a1", "b5"), ("a2", "b1"))
    assert not verify_popular_max(inst, m).popular
    report = verify_certificate(inst, m, DualCertificate({"a1": 0, "a2": 0, "b1": 0, "b5": 0}, 2))
    assert not report.ok
    assert any(v.startswith("F:") and "(a1,b4)" in v for v in report.violations)


def test_verify_zero_on_single_edge(i0):
    m = mk(i0, ("a", "b"))
    assert verify_certificate(i0, m, DualCertificate({"a": 0, "b": 0}, 1)).ok


def test_verify_range_and_cs_and_sign_violations(i2):
    m = mk(i2, ("a1", "b1"), ("a2", "b2"))
    report = verify_certificate(i2, m, DualCertificate({"a1": -4, "a2": 0, "b1": 4, "b2": 0}, 2))
    assert not report.ok and any(v.startswith("R:") for v in report.violations)
    report = verify_certificate(i2, m, DualCertificate({"a1": -2, "a2": 0, "b1": 0, "b2": 0}, 2))
    assert any(v.startswith("CS:") for v in report.violations)
    assert any(v.startswith("Z:") for v in report.violations)
    report = verify_certificate(i2, m, DualCertificate({"a1": -1, "a2": 0, "b1": 1, "b2": 0}, 2))
    assert sum(v.startswith("R:") for v in report.violations) == 2


def test_verify_domain_mismatch(i1):
    m = mk(i1, ("a1", "b1"), ("a2", "b2"))
    with pytest.raises(CertificateError, match="domain"):
        verify_certificate(i1, m, DualCertificate({"a1": 0}, 2))
    with pytest.raises(CertificateError, match="n0_prime"):
        verify_certificate(i1, m, DualCertificate({"a1": 0, "a2": 0, "b1": 0, "b2": 0}, 3))


def test_verify_requires_maximum(i1):
    with pytest.raises(NotMaximumError):
        verify_certificate(i1, mk(i1, ("a2", "b1")), DualCertificate({"a2": 0, "b1": 0}, 1))


def test_certify_zero_certificate(i0):
    cert = certify_popular_max(i0, mk(i0, ("a", "b")))
    assert cert.alpha == {"a": 0, "b": 0}


def test_certify_via_enumeration(i2):
    # the B-optimal projection is not the canonical run's projection
    m2 = mk(i2, ("a1", "b2"), ("a2", "b1"))
    cert = certify_popular_max(i2, m2)
    assert verify_certificate(i2, m2, cert).ok


def test_certify_i3(i3):
    cert = certify_popular_max(i3, mk(i3, ("a1", "b1")))
    assert cert.alpha == {"a1": 0, "b1": 0} and cert.n0_prime == 1


def test_certify_rejects_unpopular(i3):
    with pytest.raises(NotPopularError):
        certify_popular_max(i3, mk(i3, ("a3", "b1")))


def test_certificate_file_roundtrip(i1):
    gs = build_gstar(i1)
    cert = extract_certificate(gs, gale_shapley(gs.inner))
    text = serialize_certificate(i1, cert)
    assert text == "alpha a1 -2\nalpha a2 0\nalpha b1 2\nalpha b2 0\n"
    back = parse_certificate(text)
    assert back.alpha == cert.alpha and back.n0_prime == cert.n0_prime
    shuffled = "".join(sorted(text.splitlines(keepends=True), reverse=True))
    assert parse_certificate(shuffled).alpha == cert.alpha


@pytest.mark.parametrize("text, message", [
    ("alpha a x\n", "line 1, column 1: bad integer 'x'"),
    ("alpha a 0\nalpha b 0\n# again\nalpha a 2\n", "line 4, column 1: duplicate alpha line for 'a'"),
    ("alpha a 0\nalpha b 0\nalpha c 0\n",
     "line 1, column 1: certificate must cover matched nodes, an even count"),
])
def test_parse_certificate_error_text(text, message):
    with pytest.raises(ParseError) as err:
        parse_certificate(text)
    assert str(err.value) == message


def test_extracted_certificates_verify_on_randoms():
    for _seed, inst in random_cases(50, 4, 8000):
        gs = build_gstar(inst)
        for s in enumerate_stable(gs.inner):
            cert = extract_certificate(gs, s)
            assert verify_certificate(inst, project(gs, s), cert).ok


def test_extract_reads_the_stable_matching_once(monkeypatch):
    """`extract_certificate` takes the projection and its levels from one
    `GStarTables.read`."""
    from popmax.gstar import GStarTables

    reads = []
    read = GStarTables.read

    def counting_read(self, pairs):
        reads.append(1)
        return read(self, pairs)

    for _seed, inst in random_cases(20, 4, 8000):
        gs = build_gstar(inst)
        for s in enumerate_stable(gs.inner):
            monkeypatch.setattr(GStarTables, "read", counting_read)
            reads.clear()
            cert = extract_certificate(gs, s)
            assert len(reads) == 1
            monkeypatch.undo()
            assert verify_certificate(inst, project(gs, s), cert).ok


def test_certificate_soundness_cross_check():
    """A matching carrying a verified certificate is popular (checked by
    cross-running both verifiers over the extraction corpus)."""
    for _seed, inst in random_cases(40, 4, 8100):
        gs = build_gstar(inst)
        for s in enumerate_stable(gs.inner):
            m = project(gs, s)
            cert = extract_certificate(gs, s)
            if verify_certificate(inst, m, cert).ok:
                assert verify_popular_max(inst, m).popular


def test_certificate_completeness_at_desk_scale():
    """Every oracle-certified popular max-matching admits a certificate."""
    for _seed, inst in random_cases(40, 4, 8200):
        for m in brute_popular_max(inst, bound=30):
            cert = certify_popular_max(inst, m)
            assert verify_certificate(inst, m, cert).ok


def test_extract_compresses_when_only_isolated_nodes_unmatched():
    """A pair floating at a high copy level with only an isolated node
    unmatched must still compress into the matched-pair range."""
    from popmax import parse_instance

    inst = parse_instance("side A x z\nside B y\npref x: y\npref y: x\npref z:\n")
    gs = build_gstar(inst)
    for s in enumerate_stable(gs.inner):
        cert = extract_certificate(gs, s)
        assert cert.alpha == {"x": 0, "y": 0}
        m = project(gs, s)
        from popmax import lift

        lifted = lift(inst, m, cert)
        assert project(gs, lifted).pairs == m.pairs


def test_lift_uses_perfect_certificate_levels_verbatim():
    """With no unmatched nodes the copy index is exactly half the
    certificate value, even across unused levels."""
    from popmax import lift, parse_instance

    inst = parse_instance(
        "side A a1 a2\nside B b1 b2\n"
        "pref a1: b1\npref a2: b2\npref b1: a1\npref b2: a2\n")
    m = mk(inst, ("a1", "b1"), ("a2", "b2"))
    gap = DualCertificate({"a1": 0, "b1": 0, "a2": -2, "b2": 2}, 2)
    assert verify_certificate(inst, m, gap).ok
    lifted = lift(inst, m, gap)
    assert ("a2#1", "b2~") in lifted.pairs and ("a1#0", "b1~") in lifted.pairs


def test_lift_stretches_the_loose_gap(stretch):
    """Unmatched a1 and b3 pin the levels at both ends, so the three
    certificate levels spread over the four copies. Edge (a4, b1) has its
    A-end one level above its B-end, so levels 1 and 2 stay adjacent and
    the slack goes into the 0 -> 1 gap."""
    from popmax import lift

    m = mk(stretch, ("a2", "b4"), ("a3", "b1"), ("a4", "b2"))
    cert = certify_popular_max(stretch, m)
    assert cert.alpha == {"a2": 0, "a3": -2, "a4": -4, "b1": 2, "b2": 4, "b4": 0}
    lifted = lift(stretch, m, cert)
    assert sorted(p for p in lifted.pairs if p[1].endswith("~")) == [
        ("a2#0", "b4~"), ("a3#2", "b1~"), ("a4#3", "b2~")]


def test_neighbors_of_unmatched_prefer_partner():
    """On verified popular max-matchings, every neighbor of an unmatched
    node prefers its partner to all its unmatched neighbors."""
    for _seed, inst in random_cases(40, 4, 8300):
        for m in brute_popular_max(inst, bound=30):
            unmatched = [u for u in inst.nodes if not m.is_matched(u)]
            for u in unmatched:
                for v in inst.prefs[u]:
                    assert m.is_matched(v)
                    assert inst.rank(v, m.partner_of(v)) < inst.rank(v, u)


def test_certify_and_verifier_soundness_against_oracle():
    """Over every max-matching of small seeded instances, certify fails
    exactly on the oracle's non-popular ones, and every certificate the
    verifier accepts, including ones no stable matching of the derived
    instance produced, belongs to an oracle-popular matching. Offered are
    the all-zero certificate, each popular matching's certificate shifted by
    ±2 on one pair, and that certificate transplanted onto every other
    max-matching over the same matched nodes."""
    from popmax.oracle import enum_max_matchings

    for _seed, inst in random_cases(100, 5, 8400):
        maxes = enum_max_matchings(inst, bound=30)
        popular = {m.pairs for m in brute_popular_max(inst, bound=30)}
        certs = {}
        for m in maxes:
            if m.pairs in popular:
                certs[m.pairs] = certify_popular_max(inst, m)
            else:
                with pytest.raises(NotPopularError):
                    certify_popular_max(inst, m)
        for m in maxes:
            n0 = len(m.pairs)
            offered = [DualCertificate({u: 0 for u in m.partner}, n0)]
            for cert in certs.values():
                if set(cert.alpha) != set(m.partner):
                    continue
                offered.append(cert)
                for a, b in m.pairs:
                    for shift in (-2, 2):
                        alpha = dict(cert.alpha)
                        alpha[a] -= shift
                        alpha[b] += shift
                        offered.append(DualCertificate(alpha, n0))
            for cert in offered:
                if verify_certificate(inst, m, cert).ok:
                    assert m.pairs in popular


def _rule_texts(inst, m, alpha):
    """The R, P1 and P2 violations `verify_certificate` reports for alpha, in order."""
    report = verify_certificate(inst, m, DualCertificate(alpha, len(m.pairs)))
    return [v for v in report.violations if v.split(":")[0] in ("R", "P1", "P2")]


def test_range_and_pin_texts_with_one_pair(i3):
    """n0' = 1 leaves the range {0}: both sides name it with the stride of
    their sign, and each unmatched A-node pins b1 in side order."""
    m = mk(i3, ("a1", "b1"))
    assert _rule_texts(i3, m, {"a1": -2, "b1": 2}) == [
        "R: alpha[a1] = -2 not in {0, -2, ..., 0}",
        "R: alpha[b1] = 2 not in {0, 2, ..., 0}",
        "P2: alpha[b1] = 2 != 0 but b1 neighbors unmatched a2",
        "P2: alpha[b1] = 2 != 0 but b1 neighbors unmatched a3",
    ]


def test_range_and_pin_texts_with_unmatched_nodes_on_both_sides():
    """An unmatched node on each side, with two neighbors each: the range
    violations come A-side first, each side in its order, then P1 and P2,
    each in the unmatched node's list order. Moving the pinned values to
    their pins makes the certificate valid."""
    inst = parse_instance(
        "side A u a1 a2 a3 a4\nside B b1 b2 b3 b4 v\n"
        "pref u: b1 b2\npref a1: b1\npref a2: b2\npref a3: b3 v\npref a4: b4 v\n"
        "pref b1: a1 u\npref b2: a2 u\npref b3: a3\npref b4: a4\npref v: a3 a4\n")
    m = mk(inst, ("a1", "b1"), ("a2", "b2"), ("a3", "b3"), ("a4", "b4"))
    alpha = {"a1": -2, "b1": 2, "a2": -5, "b2": 5, "a3": -4, "b3": 4, "a4": -8, "b4": 8}
    assert _rule_texts(inst, m, alpha) == [
        "R: alpha[a2] = -5 not in {0, -2, ..., -6}",
        "R: alpha[a4] = -8 not in {0, -2, ..., -6}",
        "R: alpha[b2] = 5 not in {0, 2, ..., 6}",
        "R: alpha[b4] = 8 not in {0, 2, ..., 6}",
        "P1: alpha[a3] = -4 != 0 but a3 neighbors unmatched v",
        "P1: alpha[a4] = -8 != 0 but a4 neighbors unmatched v",
        "P2: alpha[b1] = 2 != 6 but b1 neighbors unmatched u",
        "P2: alpha[b2] = 5 != 6 but b2 neighbors unmatched u",
    ]
    alpha.update(a1=-6, b1=6, a2=-6, b2=6, a3=0, b3=0, a4=0, b4=0)
    assert verify_certificate(inst, m, DualCertificate(alpha, 4)).ok


def test_certify_with_pins_on_both_sides_on_randoms():
    """Every seeded instance whose popular max-matching has pins at both
    ends certifies with a certificate that verifies. The levels are then
    stretched at the lowest gap that is not rigid, one whose A-end sits one
    level above its B-end; seeds 63 and 894 need that gap named right."""
    from popmax.core import _pins

    pinned = []
    for seed in range(1000):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(2, 9), rng.randint(2, 9),
                               rng.choice([0.2, 0.3, 0.5]), seed)
        m = popular_max_matching(inst)
        if all(_pins(inst, m)):
            pinned.append(seed)
            assert verify_certificate(inst, m, certify_popular_max(inst, m)).ok, seed
    assert len(pinned) == 53 and {63, 894} <= set(pinned)


def test_feasibility_counts_an_unmatched_b_node_as_zero():
    """(F) on the edge (a1, b2) to the unmatched b2 reads alpha[b2] as 0, so
    alpha[a1] = -1 falls short of wt = 0; every violation is pinned, in
    order."""
    inst = parse_instance(
        "side A a1\nside B b1 b2\npref a1: b1 b2\npref b1: a1\npref b2: a1\n")
    m = mk(inst, ("a1", "b1"))
    report = verify_certificate(inst, m, DualCertificate({"a1": -1, "b1": 1}, 1))
    assert report.violations == (
        "R: alpha[a1] = -1 not in {0, -2, ..., 0}",
        "R: alpha[b1] = 1 not in {0, 2, ..., 0}",
        "F: alpha[a1] + alpha[b2] = -1 < wt = 0 at (a1,b2)",
        "P1: alpha[a1] = -1 != 0 but a1 neighbors unmatched b2",
    )
