"""LP-dual certificates of popularity for maximum matchings, and the
translation between certificate values and copy levels of the derived
instance in both directions.

A certificate assigns each matched node an even integer: nonpositive on the
A-side, nonnegative on the B-side, summing to 0, with matched pairs tight
and every edge with a matched endpoint satisfied, an unmatched node taking
the extreme value of its side. Neighbors of unmatched B-nodes must sit at 0
and neighbors of unmatched A-nodes at the top of the range: the pins of
rule (P), which `core._pins` lists for the verifier, `_remap_levels` and
`lift` alike. A level is half the absolute value. `certify_popular_max`
reads a certificate off the potentials of the popularity pass. A stable
matching of the derived instance, given as id pairs of its tables, has one
reader, `_read_certificate`: one `GStarTables.read` gives the projection
and its levels, which become the certificate. `extract_certificate` reads a
stable matching of the string-named instance through it, and `mincost` its
min-cost stable matching. Both routes compress the levels into the range
the matched-pair count allows. `lift` goes the other way: it places a
certificate's levels on the copies of the derived instance, stretched to
its top copy when unmatched A-nodes demand it. The compressor
`_remap_levels` serves all of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .core import Instance, Matching, _lines, _pins, _weights, is_maximum
from .errors import CertificateError, InternalError, NotMaximumError, NotPopularError, NotStableError, ParseError

if TYPE_CHECKING:  # `lift` and `extract_certificate` import the derived instance when called
    from .gstar import GStarInstance, GStarTables


class DualCertificate(NamedTuple):
    """alpha maps every matched node to an even integer; n0_prime is the
    number of matched pairs, which bounds the value range."""

    alpha: dict[str, int]
    n0_prime: int


class CertificateReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def extract_certificate(gs: GStarInstance, s: Matching) -> DualCertificate:
    """Certificate for project(s) in gs's source from the levels of stable
    s, restricted to the matched nodes; see `_read_certificate`."""
    from .stable import is_stable
    if not is_stable(gs.inner, s):
        raise NotStableError("certificates are read off stable matchings of the derived instance")
    return _read_certificate(gs.tables, ((gs.ids[u], gs.ids[v]) for u, v in s.pairs))[2]


def _read_certificate(gt: GStarTables, pairs) -> tuple[Matching, dict[str, int], DualCertificate]:
    """The source matching and levels that stable id pairs of `gt` stand
    for, and the certificate from those levels, in one `GStarTables.read`.

    The projection of a stable matching is a popular max-matching, so a
    projection that is not maximum is a bug, not a verdict on any input.
    """
    m, level = gt.read(pairs)
    maximum, path = is_maximum(gt.source, m)
    if not maximum:
        raise InternalError(f"projection of a stable matching is not maximum; augmenting path: {' '.join(path)}")
    return m, level, _certificate_from_levels(gt.source, m, {u: level[u] for u in m.partner})


def _certificate_from_levels(inst: Instance, m: Matching, raw: dict[str, int]) -> DualCertificate:
    """Certificate for m from raw levels of its matched nodes: the copy
    subscripts of a stable preimage, or half the potentials of the
    popularity pass.

    Matched nodes at compressed level i get alpha -2i (A-side) or +2i
    (B-side), the raw levels being remapped into 0..n0'-1 by
    `_remap_levels`. The result always passes verify_certificate; m is
    taken to be maximum, which the callers have decided.
    """
    n0_prime = len(m.pairs)
    remap = _remap_levels(inst, m, raw, n0_prime)
    alpha = {}
    for a, b in m.pairs:
        alpha[a] = -2 * remap[raw[a]]
        alpha[b] = 2 * remap[raw[b]]
    cert = DualCertificate(alpha, n0_prime)
    report = _check_conditions(inst, m, cert)
    if not report.ok:
        raise InternalError(
            f"extracted certificate failed verification: {list(report.violations)}")
    return cert


def _remap_levels(inst: Instance, m: Matching, level: dict[str, int],
                  n_levels: int) -> dict[int, int]:
    """Order-preserving injection of the levels of m's matched nodes into
    0..n_levels-1.

    `level` maps every matched node to its level, a pair sharing one. The
    occupied levels are packed one apart from 0 up, with the two kinds of
    pin `core._pins` lists: when some unmatched A-node has neighbors (they
    are matched, and a certificate must put them at the top), the highest
    level goes to n_levels-1; when in addition some unmatched B-node has
    neighbors (which must sit at 0), the lowest stays at 0 and the slack
    widens the lowest gap that is not rigid. A gap between levels l and
    l+1 is rigid when an edge with both ends matched has its A-end at l+1
    and its B-end at l: its weight relies on that one-level drop, so the
    two levels stay adjacent.
    """
    occupied = sorted({level[a] for a, _ in m.pairs})
    slack = n_levels - len(occupied)
    pos = list(range(len(occupied)))
    top_pins, bottom_pins = _pins(inst, m)
    if top_pins:
        if slack < 0:
            raise InternalError("certificate level span exceeds the derived instance")
        if not bottom_pins:
            pos = [p + slack for p in pos]
        elif slack:
            matched = m.partner
            rigid = {level[b] for a, b in inst.edges
                     if a in matched and b in matched and level[a] == level[b] + 1}
            k = next((k for k in range(1, len(occupied))
                      if occupied[k] != occupied[k - 1] + 1 or occupied[k - 1] not in rigid), None)
            if k is None:
                raise InternalError("rigid level chain cannot be stretched to the pins")
            pos[k:] = [p + slack for p in pos[k:]]
    return dict(zip(occupied, pos))


def lift(inst: Instance, m: Matching, cert: DualCertificate) -> Matching:
    """Build a stable matching of the derived instance projecting to m.

    `cert` is a verified dual certificate for m; `place` puts each matched
    A-node at its level. When some unmatched A-node has neighbors, they
    must sit at the top copy, so the levels are remapped by `_remap_levels`
    into the copies of the derived instance; otherwise the certificate
    levels are used as they are. Raises `CertificateError`, with its
    violations, for a certificate that does not verify. One that does
    always lifts to a stable matching, by (E) and (P) of `gstar._n_levels`,
    so an unstable lift is an `InternalError`.
    """
    report = verify_certificate(inst, m, cert)
    if not report.ok:
        raise CertificateError("certificate invalid for the matching", report.violations)
    from .gstar import build_gstar, place, project
    from .stable import is_stable
    gs = build_gstar(inst)
    level = {u: abs(v) // 2 for u, v in cert.alpha.items()}
    if _pins(inst, m)[0]:
        remap = _remap_levels(inst, m, level, gs.n0)
        level = {u: remap[l] for u, l in level.items()}
    lifted = place(gs, m, level)
    if not is_stable(gs.inner, lifted):
        raise InternalError("a verified certificate does not lift to a stable matching")
    if project(gs, lifted).pairs != m.pairs:
        raise InternalError("lift does not project back to the input matching")
    return lifted


def verify_certificate(inst: Instance, m: Matching, cert: DualCertificate) -> CertificateReport:
    """Check all six certificate conditions, reporting violations individually.

    (F) alpha_a + alpha_b >= wt(a,b) on every edge with a matched endpoint,
    where an unmatched A-node counts as -2(n0'-1) and an unmatched B-node
    as 0;
    (CS) alpha_a + alpha_b = 0 on matched pairs; (Z) the values sum to 0;
    (R) evenness and the ranges 0..-2(n0'-1) / 0..2(n0'-1); (P1) alpha_a = 0
    for neighbors of unmatched B-nodes; (P2) alpha_b = 2(n0'-1) for
    neighbors of unmatched A-nodes. (Z) is implied by the others: alpha
    must cover exactly the matched nodes, so its sum is the sum over the
    matched pairs, each 0 under (CS); a (Z) violation always comes with a
    (CS) one.
    """
    maximum, path = is_maximum(inst, m)
    if not maximum:
        raise NotMaximumError("certificates are only defined for maximum matchings", path)
    return _check_conditions(inst, m, cert)


def _check_conditions(inst: Instance, m: Matching, cert: DualCertificate) -> CertificateReport:
    """The six conditions of verify_certificate, for a maximum m."""
    alpha = cert.alpha
    if alpha.keys() != m.partner.keys():
        raise CertificateError(
            "certificate domain mismatch: must assign exactly the matched nodes")
    if cert.n0_prime != len(m.pairs):
        raise CertificateError(
            f"certificate n0_prime={cert.n0_prime} but the matching has {len(m.pairs)} pairs")
    violations = []
    top = 2 * (cert.n0_prime - 1)
    for side, sign in ((inst.side_a, -1), (inst.side_b, 1)):  # A-values <= 0, B-values >= 0
        for u in filter(alpha.__contains__, side):
            v = alpha[u]
            if v % 2 or not 0 <= sign * v <= top:
                violations.append(f"R: alpha[{u}] = {v} not in {{0, {2 * sign}, ..., {sign * top}}}")
    for a, b in sorted(m.pairs):
        s = alpha[a] + alpha[b]
        if s != 0:
            violations.append(f"CS: alpha[{a}] + alpha[{b}] = {s} != 0 on matching edge")
    total = sum(alpha.values())
    if total != 0:
        violations.append(f"Z: certificate sums to {total} != 0")
    for a, b, w in _weights(inst, m):
        if a in alpha or b in alpha:
            s = alpha.get(a, -top) + alpha.get(b, 0)
            if s < w:
                violations.append(f"F: alpha[{a}] + alpha[{b}] = {s} < wt = {w} at ({a},{b})")
    # m is maximum, so every neighbor of an unmatched node is matched
    top_pins, bottom_pins = _pins(inst, m)
    for rule, pins, want in (("P1", bottom_pins, 0), ("P2", top_pins, top)):
        for u, v in pins:
            if alpha[v] != want:
                violations.append(f"{rule}: alpha[{v}] = {alpha[v]} != {want} but {v} neighbors unmatched {u}")
    return CertificateReport(not violations, tuple(violations))


def certify_popular_max(inst: Instance, m: Matching) -> DualCertificate:
    """Produce a verified certificate for a popular max-matching.

    One longest-walk pass over the alternating digraph of m either finds a
    witness against m (raised as NotPopularError.witness) or yields
    potentials; their halves are the raw levels of the certificate. Raises
    NotMaximumError unless m is maximum.
    """
    from .popularity import Witness, _witness_or_potentials
    found = _witness_or_potentials(inst, m)
    if isinstance(found, Witness):
        raise NotPopularError(
            "matching is not a popular max-matching; no certificate exists", found)
    return _certificate_from_levels(inst, m, {u: y // 2 for u, y in found.items()})


def serialize_certificate(inst: Instance, cert: DualCertificate) -> str:
    """`alpha <node> <even-integer>` lines in instance node order."""
    alpha = cert.alpha
    return "".join(f"alpha {u} {alpha[u]}\n" for u in inst.nodes if u in alpha)


def parse_certificate(text: str) -> DualCertificate:
    """Parse certificate lines; order-insensitive."""
    alpha: dict[str, int] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        tokens = s.split()
        if len(tokens) != 3 or tokens[0] != "alpha":
            raise ParseError("expected `alpha <node> <even-integer>`", lineno)
        try:
            value = int(tokens[2])
        except ValueError:
            raise ParseError(f"bad integer {tokens[2]!r}", lineno) from None
        if tokens[1] in alpha:
            raise ParseError(f"duplicate alpha line for {tokens[1]!r}", lineno)
        alpha[tokens[1]] = value
    if len(alpha) % 2:
        raise ParseError("certificate must cover matched nodes, an even count", 1)
    return DualCertificate(alpha, len(alpha) // 2)
