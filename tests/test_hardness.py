"""3SAT transformation, gadget construction, and the reduction checker."""

from __future__ import annotations

import hashlib
import random

import pytest

from popmax import (
    CnfFormula,
    UnsupportedClauseError,
    ValidationError,
    assignment_to_matching,
    brute_sat,
    build_gadget_instance,
    check_reduction,
    compare,
    is_pareto_optimal,
    matching_cost,
    matching_to_assignment,
    pad_unit_clauses,
    parse_dimacs,
    to_dimacs,
    transform_formula,
    wt_edge,
)
from popmax import hardness, popularity
from popmax.core import Matching
from popmax.errors import BoundExceededError
from popmax.hardness import _pattern_pairs, evaluate


def test_dimacs_roundtrip():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert f.num_vars == 3 and f.clauses == ((1, -2, 3), (-1, 2))
    assert parse_dimacs(to_dimacs(f)) == f


def test_transform_three_literal_clause():
    f = CnfFormula(3, ((1, 2, 3),))
    ft = transform_formula(f)
    assert ft.num_vars == 6
    assert ft.clauses == ((1, 2, 3), (1, 4), (-1, -4), (2, 5), (-2, -5), (3, 6), (-3, -6))


def test_transform_negative_unit():
    ft = transform_formula(CnfFormula(1, ((-1,),)))
    assert ft.clauses == ((2,), (1, 2), (-1, -2))


def test_transform_unsat_pair():
    ft = transform_formula(pad_unit_clauses(CnfFormula(1, ((1,), (-1,)))))
    assert not brute_sat(ft)


def test_transform_preserves_satisfiability():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)))
        f = pad_unit_clauses(CnfFormula(n, clauses))
        assert brute_sat(f) == brute_sat(transform_formula(f))


def test_gadget_counts_for_three_literal_clause():
    ft = transform_formula(CnfFormula(3, ((1, 2, 3),)))
    g = build_gadget_instance(ft)
    assert len(g.pos) == 9 and len(g.neg) == 6
    assert len(g.instance.nodes) == 4 * 9 + 4 * 6 == 60


def test_two_literal_clause_is_two_cycle():
    ft = transform_formula(CnfFormula(1, ()))  # just the pair clauses for X1
    g = build_gadget_instance(ft)
    (a0, b0, _ap0, _bp0) = g.pos[(0, 0)]
    (a1, b1, _ap1, _bp1) = g.pos[(0, 1)]
    assert g.instance.prefs[a0][0] == b1
    assert g.instance.prefs[a1][0] == b0
    assert g.instance.prefs[b0][0] == a1
    assert g.instance.prefs[b1][0] == a0


def test_gadget_costs():
    ft = transform_formula(CnfFormula(2, ((1, 2),)))
    g = build_gadget_instance(ft)
    inst = g.instance
    internal = set()
    for a, b, ap, bp in list(g.pos.values()):
        internal |= {(a, b), (a, bp), (ap, b), (ap, bp)}
    for c, d, cp, dp in g.neg.values():
        internal |= {(c, d), (c, dp), (cp, d), (cp, dp)}
    for e in inst.edges:
        assert inst.cost(e) == (0 if e in internal else 1)


def test_unit_positive_clause_rejected():
    with pytest.raises(UnsupportedClauseError, match="pad"):
        build_gadget_instance(transform_formula(CnfFormula(1, ((1,),))))


def test_mixed_clause_rejected():
    with pytest.raises(UnsupportedClauseError, match="transform"):
        build_gadget_instance(CnfFormula(2, ((1, -2),)))


@pytest.mark.parametrize("num_vars, clauses, message", [
    (2, [("1",)], "literal '1' is not an integer"),
    (2, [(1.5,)], "literal 1.5 is not an integer"),
    ("2", [(1,)], "variable count '2' is not a nonnegative integer"),
    (-1, [], "variable count -1 is not a nonnegative integer"),
    (2, [1], "clauses must be lists of literals"),
    (2, [()], "empty clause"),
    (2, [(1, 3)], "literal 3 out of range"),
])
def test_formula_rejects_bad_values(num_vars, clauses, message):
    """A value of the wrong type or range is a `ValidationError` naming it."""
    with pytest.raises(ValidationError) as err:
        CnfFormula(num_vars, clauses)
    assert str(err.value) == message


def test_assignment_must_set_every_variable():
    """An assignment that leaves a variable of the formula unset is a
    `ValidationError` naming the least such variable, not a `KeyError`."""
    g = build_gadget_instance(transform_formula(CnfFormula(2, ((1, 2),))))
    for assignment, missing in (({1: True}, 2), ({1: True, 2: True, 4: False}, 3), ({}, 1)):
        with pytest.raises(ValidationError) as err:
            assignment_to_matching(g, assignment)
        assert str(err.value) == f"assignment gives no value to variable {missing}"


@pytest.mark.parametrize("clauses, message", [
    (((1, 2), (-1, -2), (1, -2)), "clause 2 mixes positive and negative literals"),
    (((1, 2), (-1, -2, -3)), "negative clause 1 must have exactly 2 literals"),
    (((1, 2), (-1, -2), (-1, -3)), "negative literal -1 occurs more than once"),
    (((1, 2), (-1, -3)), "variable X2 has no negation clause"),
    (((1, 2, 3, 4),), "clause 0 has more than 3 literals"),
    # each clause is checked in clause order, before the negation check
    (((1, 2, 3, 4), (1, -2)), "clause 0 has more than 3 literals"),
    (((1, 2), (-1, -2), (3, -1)), "clause 2 mixes positive and negative literals"),
    (((-1, -1),), "negative literal -1 occurs more than once"),
])
def test_gadget_rejects_each_unsupported_shape(clauses, message):
    with pytest.raises(UnsupportedClauseError, match=f"^{message}"):
        build_gadget_instance(CnfFormula(4, clauses))


def test_dimacs_keeps_an_unterminated_last_clause():
    assert parse_dimacs("p cnf 3 2\n1 -2 0\n2 3\n").clauses == ((1, -2), (2, 3))


def test_dimacs_without_header_counts_the_variables_it_uses():
    """With no header the variable count is the largest variable a clause
    uses, and 0 when there is no clause."""
    assert parse_dimacs("c only a comment\n") == CnfFormula(0, ())
    assert parse_dimacs("1 -3 0\n") == CnfFormula(3, ((1, -3),))


def test_pad_unit_clauses_pads_only_one_literal_clauses():
    f = CnfFormula(3, ((1,), (-2,), (1, -2), (-1, 2, 3)))
    assert pad_unit_clauses(f).clauses == ((1, 1), (-2, -2), (1, -2), (-1, 2, 3))


@pytest.mark.parametrize("trailer", ["%\n0\n\n", "  %\n0\n", "%\n0 bad %\n"])
def test_dimacs_stops_at_the_satlib_end_marker(trailer):
    """SATLIB's files end in a `%` line and a `0` line: reading stops at the
    `%`, so the formula is the one without the trailer."""
    text = "c SATLIB\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
    assert parse_dimacs(text + trailer) == parse_dimacs(text) == CnfFormula(3, ((1, -2, 3), (-1, 2)))


def test_assignment_to_matching_patterns():
    ft = transform_formula(CnfFormula(1, ()))
    g = build_gadget_instance(ft)
    beta = {1: True, 2: False}
    m = assignment_to_matching(g, beta)
    assert matching_cost(g.instance, m) == 0
    assert is_pareto_optimal(g.instance, m).pareto
    c1, d1, cp1, dp1 = g.neg[1]
    c2, d2, cp2, dp2 = g.neg[2]
    assert (c1, d1) in m.pairs and (cp1, dp1) in m.pairs      # true pattern
    assert (c2, dp2) in m.pairs and (cp2, d2) in m.pairs      # false pattern
    for occ in g.occurrences[1]:
        a, b, ap, bp = g.pos[occ]
        assert (a, bp) in m.pairs and (ap, b) in m.pairs
    for occ in g.occurrences[2]:
        a, b, ap, bp = g.pos[occ]
        assert (a, b) in m.pairs and (ap, bp) in m.pairs


def test_assignment_must_satisfy():
    ft = transform_formula(CnfFormula(1, ()))
    g = build_gadget_instance(ft)
    with pytest.raises(ValidationError, match="satisfy"):
        assignment_to_matching(g, {1: True, 2: True})


def test_matching_to_assignment_round_trip():
    f = CnfFormula(2, ((1, 2),))
    g = build_gadget_instance(transform_formula(f))
    beta = {1: True, 2: False, 3: False, 4: True}
    m = assignment_to_matching(g, beta)
    assert matching_to_assignment(g, m) == beta


def test_matching_to_assignment_requires_cost_zero_pareto():
    g = build_gadget_instance(transform_formula(CnfFormula(1, ())))
    e1 = next(e for e in g.instance.edges if g.instance.cost(e) == 1)
    with pytest.raises(ValidationError, match="cost"):
        matching_to_assignment(g, Matching(frozenset([e1])))


def _falsified_clause_cycle(g, ci, clause):
    """The all-blocking falsifying cycle of a positive clause whose literals
    are all in false state."""
    k = len(clause)
    neg_true = {v: v not in set(clause) for v in g.neg}
    occ_true = {occ: neg_true[v] for v, occs in g.occurrences.items() for occ in occs}
    m = _pattern_pairs(g, neg_true, occ_true)
    cycle = []
    for slot in range(k):
        a = g.pos[(ci, slot)][0]
        b_prev = g.pos[(ci, (slot - 1) % k)][1]
        cycle.append((a, b_prev))
    return m, cycle


def test_falsifying_cycle_three_literal():
    ft = transform_formula(CnfFormula(3, ((1, 2, 3),)))
    g = build_gadget_instance(ft)
    m, nm_edges = _falsified_clause_cycle(g, 0, ft.clauses[0])
    for e in nm_edges:
        assert wt_edge(g.instance, m, e) == 2
    matched = [(g.pos[(0, s)][0], g.pos[(0, s)][1]) for s in range(3)]
    flipped = Matching(frozenset(m.pairs) ^ set(nm_edges) ^ set(matched))
    assert compare(g.instance, flipped, m) == (6, 0, 6)
    assert not is_pareto_optimal(g.instance, m).pareto
    with pytest.raises(ValidationError, match="Pareto"):
        matching_to_assignment(g, m)


def test_falsifying_cycle_two_literal():
    ft = transform_formula(CnfFormula(2, ((1, 2),)))
    g = build_gadget_instance(ft)
    m, nm_edges = _falsified_clause_cycle(g, 0, ft.clauses[0])
    matched = [(g.pos[(0, s)][0], g.pos[(0, s)][1]) for s in range(2)]
    flipped = Matching(frozenset(m.pairs) ^ set(nm_edges) ^ set(matched))
    assert compare(g.instance, flipped, m) == (4, 0, 4)
    assert not is_pareto_optimal(g.instance, m).pareto


def test_falsifying_cycle_negative_clause():
    ft = transform_formula(CnfFormula(1, ()))
    g = build_gadget_instance(ft)
    # negative clause (-1, -2) falsified: both variables true
    neg_true = {1: True, 2: True}
    occ_true = {occ: True for occ in g.pos}
    m = _pattern_pairs(g, neg_true, occ_true)
    c1, d1 = g.neg[1][0], g.neg[1][1]
    c2, d2 = g.neg[2][0], g.neg[2][1]
    for e in ((c1, d2), (c2, d1)):
        assert wt_edge(g.instance, m, e) == 2
    flipped = Matching(frozenset(m.pairs) ^ {(c1, d2), (c2, d1), (c1, d1), (c2, d2)})
    assert compare(g.instance, flipped, m) == (4, 0, 4)
    assert not is_pareto_optimal(g.instance, m).pareto


def test_consistency_pairs_excluded():
    ft = transform_formula(CnfFormula(1, ()))
    g = build_gadget_instance(ft)
    # variable 1: occurrence gadgets in true pattern, negation gadget false
    neg_true = {1: False, 2: True}
    occ_true = {occ: True for occ in g.pos}
    m = _pattern_pairs(g, neg_true, occ_true)
    c, d, cp, dp = g.neg[1]
    occ = g.occurrences[1][0]
    a, b, ap, bp = g.pos[occ]
    assert (a, bp) in m.pairs and (c, dp) in m.pairs
    assert wt_edge(g.instance, m, (a, dp)) == 2
    assert wt_edge(g.instance, m, (c, bp)) == 2
    assert not is_pareto_optimal(g.instance, m).pareto


def test_check_reduction_satisfiable():
    rep = check_reduction(CnfFormula(3, ((1, 2, 3),)))
    assert rep.satisfiable and rep.cost0_pareto_exists and rep.equivalence_holds


def test_check_reduction_unsatisfiable():
    rep = check_reduction(pad_unit_clauses(CnfFormula(1, ((1,), (-1,)))))
    assert not rep.satisfiable and not rep.cost0_pareto_exists and rep.equivalence_holds


def test_check_reduction_empty_formula():
    rep = check_reduction(CnfFormula(0, ()))
    assert rep.satisfiable and rep.equivalence_holds and rep.gadget_nodes == 0


def test_check_reduction_bounds():
    with pytest.raises(BoundExceededError):
        check_reduction(CnfFormula(5, ((1, 2),)))
    with pytest.raises(BoundExceededError):
        check_reduction(CnfFormula(1, ((1, 1),) * 7))


def test_evaluate_and_brute_sat():
    f = CnfFormula(2, ((1, 2), (-1, -2)))
    assert evaluate(f, {1: True, 2: False})
    assert not evaluate(f, {1: True, 2: True})
    assert brute_sat(f)
    assert not brute_sat(CnfFormula(1, ((1, 1), (-1, -1))))


@pytest.mark.parametrize("f, expected", [
    (CnfFormula(3, ((1, 2, 3),)), 77),
    (CnfFormula(3, ((1, 2, 3), (-1, -2))), 78),
    (pad_unit_clauses(CnfFormula(1, ((1,), (-1,)))), 10),
])
def test_check_reduction_pareto_checks_each_pattern_once(monkeypatch, f, expected):
    """One Pareto check per pattern matching built: each assignment's,
    each variable's consistency pattern and each clause's falsifying one."""
    calls = []

    def counted(inst, m):
        calls.append(m)
        return is_pareto_optimal(inst, m)

    monkeypatch.setattr(popularity, "is_pareto_optimal", counted)  # read at call time
    rep = check_reduction(f)
    ft = transform_formula(f)
    g = build_gadget_instance(ft)
    with_occurrences = sum(1 for occs in g.occurrences.values() if occs)
    assert rep.equivalence_holds
    assert len(calls) == rep.candidates_checked + with_occurrences + len(ft.clauses) == expected


@pytest.mark.parametrize("f", [
    CnfFormula(3, ((1, 2, 3), (-1, -2))),
    pad_unit_clauses(CnfFormula(1, ((1,), (-1,)))),
])
def test_check_reduction_enumerates_the_transformed_formula_once(monkeypatch, f):
    """`brute_sat` runs on the input formula only: the loop over the
    transformed formula's assignments finds its satisfiability itself."""
    calls = []

    def recorded(g):
        calls.append(g)
        return brute_sat(g)

    monkeypatch.setattr(hardness, "brute_sat", recorded)
    rep = check_reduction(f)
    assert calls == [f]
    assert rep.satisfiable == brute_sat(f) and rep.equivalence_holds
    assert rep.candidates_checked == 2 ** transform_formula(f).num_vars


def _seeded_formulas(seed, count, max_vars, max_clauses, lengths):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vars)
        yield CnfFormula(n, [[rng.choice((1, -1)) * rng.randint(1, n)
                              for _ in range(rng.choice(lengths))]
                             for _ in range(rng.randint(1, max_clauses))])


def test_gadgets_and_reduction_reports_are_pinned():
    """One digest over the gadgets of 200 seeded formulas (`repr`, so the
    order of every list, side and cost key counts) and the reports of 40
    smaller padded ones: a change to the wiring or the checker that moves
    one byte of either fails here."""
    h = hashlib.sha256()
    for f in _seeded_formulas(1, 200, 12, 30, (2, 3)):
        h.update(repr(build_gadget_instance(transform_formula(f))).encode())
    for f in _seeded_formulas(2, 40, 4, 6, (1, 2, 3)):
        h.update(str(check_reduction(pad_unit_clauses(f))).encode())
    assert h.hexdigest()[:16] == "553c4a299f0dd43b"


def test_every_clause_is_a_ring_of_gadgets():
    """Around each clause's `_ring` of (x, y, x', y') gadgets, x lists the
    previous gadget's y first, at cost 1, and y lists the next gadget's x
    first; a positive clause's ring is its occurrence gadgets in slot
    order, a negative clause's the negation gadgets of its variables."""
    for f in _seeded_formulas(3, 60, 8, 12, (2, 3)):
        g = build_gadget_instance(transform_formula(f))
        inst = g.instance
        for ci, clause in enumerate(g.formula.clauses):
            ring = hardness._ring(g.pos, g.neg, ci, clause)
            expected = ([g.pos[(ci, slot)] for slot in range(len(clause))] if clause[0] > 0
                        else [g.neg[-l] for l in clause])
            assert ring == expected
            for i, (x, y, _xp, _yp) in enumerate(ring):
                y_prev, x_next = ring[i - 1][1], ring[(i + 1) % len(ring)][0]
                assert inst.prefs[x][0] == y_prev and inst.cost((x, y_prev)) == 1
                assert inst.prefs[y][0] == x_next
