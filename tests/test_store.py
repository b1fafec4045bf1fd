"""Triple store tests: matching, joins, saturation and persistence.

Join results are checked against exhaustive enumeration over all triple
assignments; saturation against a naive iterate-until-no-change fixpoint.
"""

import itertools
import random

import pytest

from semdrought.model import Datatype, Iri, Literal, Namespaces, Triple
from semdrought.store import (
    Binding,
    InferenceRule,
    ParseError,
    TriplePattern,
    TripleStore,
    Variable,
    builtin_rules,
)

NS = Namespaces()


def iri(n: str) -> Iri:
    return NS.iri(f"ex:{n}")


def t(s: str, p: str, o: str) -> Triple:
    return Triple(iri(s), iri(p), iri(o))


# --- oracles ----------------------------------------------------------------

def oracle_bgp(triples: list[Triple], patterns: list[TriplePattern]) -> set[tuple]:
    """All consistent assignments of stored triples to patterns, brute force."""
    names = sorted({v for p in patterns for v in p.variables()})
    solutions = set()
    for combo in itertools.product(triples, repeat=len(patterns)):
        binding: Binding = {}
        ok = True
        for pattern, triple in zip(combo, patterns):
            for slot, value in ((pattern.subject, triple.subject),
                                (pattern.predicate, triple.predicate),
                                (pattern.object, triple.object)):
                if isinstance(slot, Variable):
                    if binding.setdefault(slot.name, value) != value:
                        ok = False
                elif slot != value:
                    ok = False
            if not ok:
                break
        if ok:
            solutions.add(tuple(binding[n] for n in names))
    return solutions


def as_tuples(bindings: list[Binding], patterns: list[TriplePattern]) -> set[tuple]:
    names = sorted({v for p in patterns for v in p.variables()})
    return {tuple(b[n] for n in names) for b in bindings}


def oracle_fixpoint(triples: set[Triple], rules: list[InferenceRule]) -> set[Triple]:
    """Naive iterate-until-no-change, re-deriving from scratch each pass."""
    facts = set(triples)
    while True:
        fresh = set()
        for rule in rules:
            for binding in match_all(facts, list(rule.body), {}):
                head = rule.head
                resolved = []
                for slot in (head.subject, head.predicate, head.object):
                    resolved.append(binding[slot.name] if isinstance(slot, Variable) else slot)
                fresh.add(Triple(*resolved))
        if fresh <= facts:
            return facts
        facts |= fresh


def match_all(facts: set[Triple], patterns: list[TriplePattern], binding: Binding):
    if not patterns:
        yield dict(binding)
        return
    first, rest = patterns[0], patterns[1:]
    for fact in facts:
        extended = dict(binding)
        ok = True
        for slot, value in ((first.subject, fact.subject),
                            (first.predicate, fact.predicate),
                            (first.object, fact.object)):
            if isinstance(slot, Variable):
                if extended.setdefault(slot.name, value) != value:
                    ok = False
                    break
            elif slot != value:
                ok = False
                break
        if ok:
            yield from match_all(facts, rest, extended)


# --- tests ------------------------------------------------------------------

class TestInsert:
    def test_first_insert_true(self):
        store = TripleStore()
        assert store.insert(t("a", "p", "b")) is True

    def test_reinsert_false(self):
        store = TripleStore()
        store.insert(t("a", "p", "b"))
        assert store.insert(t("a", "p", "b")) is False

    def test_set_cardinality(self):
        store = TripleStore()
        for i in range(10):
            store.insert(t(f"s{i}", "p", "o"))
            store.insert(t(f"s{i}", "p", "o"))
        assert len(store) == 10


class TestMatchPattern:
    def setup_method(self):
        self.store = TripleStore()
        for name in ("o1", "o2", "o3"):
            self.store.insert(t(name, "rdf_type", "ObservationEvent"))
        self.store.insert(t("o1", "hasValue", "v"))

    def test_variable_subject(self):
        pattern = TriplePattern(Variable("s"), iri("rdf_type"), iri("ObservationEvent"))
        assert len(self.store.match_pattern(pattern)) == 3

    def test_ground_match_is_empty_binding(self):
        pattern = TriplePattern(iri("o1"), iri("hasValue"), iri("v"))
        assert self.store.match_pattern(pattern) == [{}]

    def test_ground_non_match_is_empty_set(self):
        pattern = TriplePattern(iri("o9"), iri("hasValue"), iri("v"))
        assert self.store.match_pattern(pattern) == []

    def test_repeated_variable_matches_self_loops_only(self):
        self.store.insert(t("a", "influencedBy", "a"))
        self.store.insert(t("a", "influencedBy", "b"))
        pattern = TriplePattern(Variable("x"), iri("influencedBy"), Variable("x"))
        bindings = self.store.match_pattern(pattern)
        assert bindings == [{"x": iri("a")}]


class TestQueryBgp:
    def test_shared_variable_join(self):
        store = TripleStore()
        store.insert(t("o1", "observedProperty", "soilMoisture"))
        store.insert(t("o2", "observedProperty", "airTemperature"))
        store.insert(Triple(iri("o1"), iri("hasValue"), Literal("23.5", Datatype.DOUBLE)))
        store.insert(Triple(iri("o2"), iri("hasValue"), Literal("30", Datatype.DOUBLE)))
        bindings = store.query_bgp([
            TriplePattern(Variable("o"), iri("observedProperty"), iri("soilMoisture")),
            TriplePattern(Variable("o"), iri("hasValue"), Variable("v")),
        ])
        assert bindings == [{"o": iri("o1"), "v": Literal("23.5", Datatype.DOUBLE)}]

    def test_disjoint_patterns_cartesian_product(self):
        store = TripleStore()
        store.insert(t("a", "p", "b"))
        store.insert(t("c", "p", "d"))
        bindings = store.query_bgp([
            TriplePattern(Variable("x"), iri("p"), Variable("y")),
            TriplePattern(Variable("u"), iri("p"), Variable("v")),
        ])
        assert len(bindings) == 4

    def test_random_queries_match_enumeration_oracle(self):
        rng = random.Random(20240811)
        names = [f"n{i}" for i in range(8)]
        preds = [f"p{i}" for i in range(3)]
        for _ in range(25):
            store = TripleStore()
            triples = [t(rng.choice(names), rng.choice(preds), rng.choice(names))
                       for _ in range(rng.randint(1, 50))]
            for triple in triples:
                store.insert(triple)
            stored = list(store)
            patterns = []
            variables = [Variable(v) for v in ("x", "y", "z")]
            for _ in range(3):
                slots = [
                    rng.choice(variables) if rng.random() < 0.55
                    else iri(rng.choice(names if i != 1 else preds))
                    for i in range(3)
                ]
                patterns.append(TriplePattern(*slots))
            bindings = store.query_bgp(patterns)
            got = as_tuples(bindings, patterns)
            expected = oracle_bgp(stored, patterns)
            assert got == expected
            assert len(bindings) == len(got)    # with no dedupe, still no repeats


SUBCLASS_TRANSITIVITY = InferenceRule(
    body=(
        TriplePattern(Variable("a"), iri("subClassOf"), Variable("b")),
        TriplePattern(Variable("b"), iri("subClassOf"), Variable("c")),
    ),
    head=TriplePattern(Variable("a"), iri("subClassOf"), Variable("c")),
)

TYPE_PROPAGATION = InferenceRule(
    body=(
        TriplePattern(Variable("a"), iri("subClassOf"), Variable("b")),
        TriplePattern(Variable("x"), Iri(NS.expand("rdf:type")), Variable("a")),
    ),
    head=TriplePattern(Variable("x"), Iri(NS.expand("rdf:type")), Variable("b")),
)


class TestSaturate:
    def test_transitivity_derives_one(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        assert store.saturate([SUBCLASS_TRANSITIVITY]) == 1
        assert t("A", "subClassOf", "C") in store
        assert store.is_inferred(t("A", "subClassOf", "C"))

    def test_type_propagation(self):
        store = TripleStore()
        store.insert(Triple(iri("s1"), Iri(NS.expand("rdf:type")), iri("A")))
        store.insert(t("A", "subClassOf", "B"))
        store.saturate([TYPE_PROPAGATION])
        assert Triple(iri("s1"), Iri(NS.expand("rdf:type")), iri("B")) in store

    def test_repeated_saturation_derives_zero(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        store.insert(t("C", "subClassOf", "D"))
        assert store.saturate([SUBCLASS_TRANSITIVITY]) == 3
        assert store.saturate([SUBCLASS_TRANSITIVITY]) == 0

    def test_monotone_growth(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        before = set(store)
        store.saturate([SUBCLASS_TRANSITIVITY])
        assert before <= set(store)

    def test_range_restriction_enforced(self):
        with pytest.raises(ValueError):
            InferenceRule(
                body=(TriplePattern(Variable("a"), iri("p"), Variable("b")),),
                head=TriplePattern(Variable("a"), iri("q"), Variable("fresh")),
            )

    def test_random_stores_match_naive_fixpoint_oracle(self):
        rng = random.Random(99)
        names = [f"c{i}" for i in range(6)]
        preds = ["subClassOf", "subPropertyOf", "rel"]
        variables = [Variable(v) for v in ("a", "b", "c")]
        for _ in range(25):
            store = TripleStore()
            for _ in range(rng.randint(1, 50)):
                store.insert(t(rng.choice(names), rng.choice(preds), rng.choice(names)))
            baseline = set(store)
            rules = []
            for _ in range(rng.randint(1, 5)):
                body = []
                for _ in range(rng.randint(1, 2)):
                    body.append(TriplePattern(
                        rng.choice(variables), iri(rng.choice(preds)), rng.choice(variables)
                    ))
                bound = {v for p in body for v in p.variables()}
                head_slots = [
                    rng.choice(sorted(bound)) if rng.random() < 0.8 else rng.choice(names)
                    for _ in range(2)
                ]
                head = TriplePattern(
                    Variable(head_slots[0]) if head_slots[0] in bound else iri(head_slots[0]),
                    iri(rng.choice(preds)),
                    Variable(head_slots[1]) if head_slots[1] in bound else iri(head_slots[1]),
                )
                rules.append(InferenceRule(body=tuple(body), head=head))
            count = store.saturate(rules)
            expected = oracle_fixpoint(baseline, rules)
            assert set(store) == expected
            assert count == len(expected) - len(baseline)


class TestSerialization:
    def test_empty_store_empty_text(self):
        assert TripleStore().serialize() == ""

    def test_round_trip_preserves_triples(self):
        store = TripleStore()
        store.insert(t("a", "p", "b"))
        store.insert(Triple(iri("o"), iri("hasValue"), Literal("0", Datatype.DOUBLE)))
        store.insert(Triple(iri("o"), iri("atTime"),
                            Literal("2023-01-01T00:00:00Z", Datatype.DATETIME)))
        loaded = TripleStore.load(store.serialize())
        assert set(loaded) == set(store)

    def test_deterministic_across_insertion_orders(self):
        a, b = TripleStore(), TripleStore()
        triples = [t(f"s{i}", "p", f"o{i}") for i in range(20)]
        for triple in triples:
            a.insert(triple)
        for triple in reversed(triples):
            b.insert(triple)
        assert a.serialize() == b.serialize()

    def test_missing_terminator_is_parse_error_with_line(self):
        text = "<http://x.org/a> <http://x.org/p> <http://x.org/b> .\n<http://x.org/a> <http://x.org/p> <http://x.org/c>\n"
        with pytest.raises(ParseError) as err:
            TripleStore.load(text)
        assert err.value.line_number == 2

    def test_literal_escaping_round_trips(self):
        store = TripleStore()
        store.insert(Triple(iri("s"), iri("p"), Literal('say "hi"\n', Datatype.STRING)))
        loaded = TripleStore.load(store.serialize())
        assert set(loaded) == set(store)

    def test_blank_node_serialization(self):
        from semdrought.model import BlankNode
        store = TripleStore()
        store.insert(Triple(BlankNode("b1"), iri("p"), iri("o")))
        assert "_:b1" in store.serialize()
        assert set(TripleStore.load(store.serialize())) == set(store)

    def test_inferred_marks_not_persisted(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        store.saturate([SUBCLASS_TRANSITIVITY])
        loaded = TripleStore.load(store.serialize())
        derived = t("A", "subClassOf", "C")
        assert derived in loaded and not loaded.is_inferred(derived)


class TestBuiltinRules:
    def test_shipped_rule_set_shape(self):
        rules = builtin_rules(NS)
        assert len(rules) == 4

    def test_influenced_by_is_not_transitive(self):
        store = TripleStore()
        store.insert(t("soilMoisture", "influencedBy", "airTemperature"))
        store.insert(t("airTemperature", "influencedBy", "windSpeed"))
        store.saturate(builtin_rules(NS))
        assert t("soilMoisture", "influencedBy", "windSpeed") not in store

    def test_subproperty_propagates_predicates(self):
        store = TripleStore()
        store.insert(t("hasValue", "subPropertyOf", "hasQuantity"))
        store.insert(t("o1", "hasValue", "v"))
        store.saturate(builtin_rules(NS))
        assert t("o1", "hasQuantity", "v") in store
