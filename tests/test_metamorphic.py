"""Metamorphic relations: no output depends on names, declaration order or
which side proposes.

Relabel and reorder: every node is renamed and both sides are permuted.
`solve`, `certify` and `mincost` (matching, cost and certificate) must
return the image of their answer on the original, because the
proposer-optimal stable matching of the derived instance, the least
potentials and the inclusion-minimal optimal closure are each unique.
`verify` and `pareto` must give the same verdict; a witness may differ, so
each is checked only by toggling it. All of this is checked on small
costed instances, the chain families, larger costed instances (sides
20-40) and the `FAR_LEVELS` squares, which hold a popular max-matching
beyond the top + 2 levels of the run. On larger instances (sides 20-40) and a planted gadget, whose lists are read
by position, the relation is checked on the verdicts of `verify`,
`pareto` and `certify` alone.

Swap the sides: popularity among maximum matchings is symmetric, so
`mincost` keeps its cost, and the swapped instance's `solve` matching is a
popular max-matching of the original, which verifies and certifies there.
"""

from __future__ import annotations

import random

import pytest

from popmax import (
    Instance,
    NotPopularError,
    apply_witness,
    certify_popular_max,
    compare,
    is_maximum,
    is_pareto_optimal,
    make_matching,
    min_cost_popular_max,
    popular_max_matching,
    random_instance,
    verify_certificate,
    verify_popular_max,
)

from conftest import chain, planted_gadget
from test_small_world import FAR_LEVELS


def _random_cases(count, seed0):
    """Seeded costed instances with sides 1-9 and costs 0-9."""
    for seed in range(seed0, seed0 + count):
        rng = random.Random(seed)
        yield random_instance(rng.randint(1, 9), rng.randint(1, 9),
                              rng.choice([0.2, 0.3, 0.5, 0.8]), seed, (0, 9))


def _chains():
    for L in range(1, 6):
        for ladder in (False, True):
            for reverse in (False, True):
                yield chain(L, ladder, reverse)[0]


def _sizable_costed_cases():
    """Seeded costed instances with sides 20-40 and costs 0-9, then the
    `FAR_LEVELS` squares."""
    for seed in range(9200, 9210):
        rng = random.Random(seed)
        yield random_instance(rng.randint(20, 40), rng.randint(20, 40),
                              rng.choice([0.1, 0.2, 0.3]), seed, (0, 9))
    for args in FAR_LEVELS:
        yield random_instance(*args)


def _sizable_cases():
    """Seeded instances with sides 20-40, each with the matchings
    `_some_matchings` reaches and `solve`'s, and a planted gadget with its
    assignment matching too."""
    for seed in range(9100, 9110):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(20, 40), rng.randint(20, 40),
                               rng.choice([0.1, 0.2, 0.3]), seed)
        yield inst, [*_some_matchings(inst, rng), popular_max_matching(inst)]
    inst, assigned = planted_gadget(3, 9110)
    yield inst, [assigned, popular_max_matching(inst)]


def _relabel(inst: Instance, rng: random.Random) -> tuple[Instance, dict[str, str]]:
    """The instance with every node renamed and both sides permuted, and the
    renaming. The new names are shuffled, so they sort in another order,
    and hold the characters derived names reserve, `#`, `!` and `~`, which
    only the writers of derived names refuse."""
    nodes = list(inst.nodes)
    fresh = [f"n{'#!~'[i % 3]}{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    ren = dict(zip(nodes, fresh))
    side_a = [ren[a] for a in inst.side_a]
    side_b = [ren[b] for b in inst.side_b]
    rng.shuffle(side_a)
    rng.shuffle(side_b)
    prefs = {ren[u]: tuple(ren[v] for v in lst) for u, lst in inst.prefs.items()}
    costs = {(ren[a], ren[b]): c for (a, b), c in inst.costs.items()}
    return Instance(side_a, side_b, prefs, costs), ren


def _swap(inst: Instance) -> Instance:
    """The instance with A and B exchanged, cost keys turned."""
    return Instance(inst.side_b, inst.side_a, inst.prefs,
                    {(b, a): c for (a, b), c in inst.costs.items()})


def _image(inst: Instance, m, ren):
    return make_matching(inst, [(ren[a], ren[b]) for a, b in m.pairs])


def _some_matchings(inst: Instance, rng: random.Random):
    """A random greedy matching, then the maximum matching its augmentation
    reaches, along the paths `is_maximum` reports."""
    order = list(inst.edges)
    rng.shuffle(order)
    taken = {}
    for a, b in order:
        if a not in taken and b not in taken:
            taken[a], taken[b] = b, a
    m = make_matching(inst, [(a, b) for a, b in taken.items() if a in inst.side_a])
    yield m
    while True:
        maximum, path = is_maximum(inst, m)
        if maximum:
            break
        # the path runs a - b - a' - ... - b': its edges out of A-nodes
        # join m, and those into them leave it
        m = make_matching(inst, m.pairs ^ set(zip(path[::2], path[1::2]))
                          ^ set(zip(path[2::2], path[1::2])))
    yield m


def _verdicts(inst: Instance, m):
    """The verify and pareto verdicts on m; each rejection's witness is
    checked by toggling it."""
    popular = None
    if is_maximum(inst, m)[0]:
        verdict = verify_popular_max(inst, m)
        popular = verdict.popular
        if not popular:
            flipped = apply_witness(m, verdict.witness)
            assert is_maximum(inst, flipped)[0]
            assert compare(inst, flipped, m).delta >= 1
    verdict = is_pareto_optimal(inst, m)
    if not verdict.pareto:
        tally = compare(inst, apply_witness(m, verdict.witness), m)
        assert tally.phi_mn > 0 and tally.phi_nm == 0
    return popular, verdict.pareto


def _certified(inst: Instance, m):
    """certify's answer on a maximum matching: its certificate, or None."""
    try:
        cert = certify_popular_max(inst, m)
    except NotPopularError:
        return None
    return cert.alpha, cert.n0_prime


@pytest.mark.parametrize("cases", [
    pytest.param(lambda: _random_cases(100, 7000), id="random"),
    pytest.param(_chains, id="chains"),
    pytest.param(_sizable_costed_cases, id="sizable-costed"),
])
def test_relabel_and_reorder(cases):
    rng = random.Random(1)
    for inst in cases():
        other, ren = _relabel(inst, rng)

        m = popular_max_matching(inst)
        assert popular_max_matching(other) == _image(other, m, ren)

        cert = certify_popular_max(inst, m)
        image_cert = certify_popular_max(other, _image(other, m, ren))
        assert image_cert.alpha == {ren[u]: v for u, v in cert.alpha.items()}
        assert image_cert.n0_prime == cert.n0_prime

        res = min_cost_popular_max(inst)
        image_res = min_cost_popular_max(other)
        assert image_res.matching == _image(other, res.matching, ren)
        assert image_res.cost == res.cost
        assert image_res.certificate.alpha == {
            ren[u]: v for u, v in res.certificate.alpha.items()}

        for n in _some_matchings(inst, rng):
            assert _verdicts(other, _image(other, n, ren)) == _verdicts(inst, n)


def test_relabel_and_reorder_verdicts_on_sizable_instances():
    rng = random.Random(2)
    seen = set()
    for inst, matchings in _sizable_cases():
        other, ren = _relabel(inst, rng)
        for n in matchings:
            image = _image(other, n, ren)
            verdicts = _verdicts(inst, n)
            assert _verdicts(other, image) == verdicts
            seen.add(verdicts)
            if verdicts[0] is not None:  # certify takes maximum matchings only
                cert, image_cert = _certified(inst, n), _certified(other, image)
                assert (cert is not None) == verdicts[0]
                if cert is None:
                    assert image_cert is None
                else:
                    assert image_cert == ({ren[u]: v for u, v in cert[0].items()}, cert[1])
    assert {popular for popular, _ in seen} == {None, False, True}
    assert {pareto for _, pareto in seen} == {False, True}


def test_swap_the_sides():
    for inst in _random_cases(100, 8000):
        swapped = _swap(inst)
        assert min_cost_popular_max(swapped).cost == min_cost_popular_max(inst).cost
        m = make_matching(inst, [(a, b) for b, a in popular_max_matching(swapped).pairs])
        assert verify_popular_max(inst, m).popular
        assert verify_certificate(inst, m, certify_popular_max(inst, m)).ok
