"""Triple store tests: matching, joins, saturation and persistence.

Join results are checked against exhaustive enumeration over all triple
assignments; saturation against a naive iterate-until-no-change fixpoint of
the built-in rules, written here in their Datalog rule form.
"""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdrought.model import (
    MAX_UTC_INSTANT,
    Datatype,
    Iri,
    Literal,
    Namespaces,
    Triple,
    canonical_double,
    format_utc_instant,
)
from semdrought.store import (
    Binding,
    ParseError,
    TriplePattern,
    TripleStore,
    Variable,
)

NS = Namespaces()
RDF_TYPE, SUB_CLASS, SUB_PROPERTY = (
    NS.iri(name) for name in ("rdf:type", "ex:subClassOf", "ex:subPropertyOf"))


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


@dataclass(frozen=True)
class InferenceRule:
    """A positive Datalog rule: ``head`` holds for each binding of ``body``."""
    body: tuple[TriplePattern, ...]
    head: TriplePattern


def builtin_rules(ns: Namespaces) -> list[InferenceRule]:
    """The rules ``TripleStore.saturate`` closes under, RDFS entailment rules
    rdfs11, rdfs5, rdfs9 and rdfs7 over ``ex:subClassOf`` and
    ``ex:subPropertyOf``. Influence facts deliberately get no rule."""
    rdf_type, sub_class, sub_prop = (
        ns.iri(name) for name in ("rdf:type", "ex:subClassOf", "ex:subPropertyOf"))
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    x, p, q, o = Variable("x"), Variable("p"), Variable("q"), Variable("o")
    return [
        InferenceRule(
            body=(TriplePattern(a, sub_class, b), TriplePattern(b, sub_class, c)),
            head=TriplePattern(a, sub_class, c),
        ),
        InferenceRule(
            body=(TriplePattern(a, sub_prop, b), TriplePattern(b, sub_prop, c)),
            head=TriplePattern(a, sub_prop, c),
        ),
        InferenceRule(
            body=(TriplePattern(a, sub_class, b), TriplePattern(x, rdf_type, a)),
            head=TriplePattern(x, rdf_type, b),
        ),
        InferenceRule(
            body=(TriplePattern(p, sub_prop, q), TriplePattern(x, p, o)),
            head=TriplePattern(x, q, o),
        ),
    ]


def oracle_fixpoint(triples: set[Triple], rules: list[InferenceRule]) -> set[Triple]:
    """Naive iterate-until-no-change, re-deriving from scratch each pass. A
    head whose predicate is not an IRI is no triple, and is not derived."""
    facts = set(triples)
    while True:
        fresh = set()
        for rule in rules:
            for binding in match_all(facts, list(rule.body), {}):
                head = rule.head
                resolved = []
                for slot in (head.subject, head.predicate, head.object):
                    resolved.append(binding[slot.name] if isinstance(slot, Variable) else slot)
                if isinstance(resolved[1], Iri):
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


def random_ontology(rng: random.Random) -> set[Triple]:
    """Up to 25 triples over a few nodes and properties. Every predicate is
    drawn, the three hierarchy predicates among them; sub-property links
    relate properties, those three included, and any object may be a
    literal."""
    nodes = [iri(f"n{i}") for i in range(4)]
    properties = [iri("p0"), iri("p1"), RDF_TYPE, SUB_CLASS, SUB_PROPERTY]
    non_iris = [Literal("1", Datatype.DOUBLE)]
    triples = set()
    for _ in range(rng.randint(1, 25)):
        predicate = rng.choice(properties)
        terms = properties if predicate == SUB_PROPERTY else nodes
        triples.add(Triple(rng.choice(terms), predicate, rng.choice(terms + non_iris)))
    return triples


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


class TestSaturate:
    def test_transitivity_derives_one(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        assert store.saturate(NS) == 1
        assert t("A", "subClassOf", "C") in store
        assert store.is_inferred(t("A", "subClassOf", "C"))

    def test_type_propagation(self):
        store = TripleStore()
        store.insert(Triple(iri("s1"), RDF_TYPE, iri("A")))
        store.insert(t("A", "subClassOf", "B"))
        assert store.saturate(NS) == 1
        assert Triple(iri("s1"), RDF_TYPE, iri("B")) in store

    def test_repeated_saturation_derives_zero(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        store.insert(t("C", "subClassOf", "D"))
        assert store.saturate(NS) == 3
        assert store.saturate(NS) == 0

    def test_monotone_growth(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("p", "subPropertyOf", "subClassOf"))
        store.insert(t("B", "p", "C"))
        before = set(store)
        assert store.saturate(NS) == 2      # B subClassOf C, then A subClassOf C
        assert before <= set(store)
        assert not any(store.is_inferred(triple) for triple in before)

    def test_heads_without_an_iri_predicate_are_not_derived(self):
        one = Literal("1", Datatype.DOUBLE)
        store = TripleStore()
        for triple in (Triple(SUB_PROPERTY, SUB_PROPERTY, one),
                       t("p", "subPropertyOf", "subPropertyOf"), t("a", "p", "b")):
            store.insert(triple)
        baseline = set(store)
        store.saturate(NS)
        assert set(store) == oracle_fixpoint(baseline, builtin_rules(NS))
        assert Triple(iri("p"), SUB_PROPERTY, one) in store     # rdfs5 keeps a literal object

    def test_random_stores_match_naive_fixpoint_oracle(self):
        rng = random.Random(99)
        rules = builtin_rules(NS)
        for _ in range(40):
            baseline = random_ontology(rng)
            store = TripleStore()
            for triple in baseline:
                store.insert(triple)
            count = store.saturate(NS)
            expected = oracle_fixpoint(baseline, rules)
            assert set(store) == expected
            assert count == len(expected) - len(baseline)
            assert {tr for tr in store if store.is_inferred(tr)} == expected - baseline


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

    @pytest.mark.parametrize("escape", ["\\q", "\\u0041", "\\'"])
    def test_unknown_escape_is_parse_error_with_line(self, escape):
        """Literals are written verbatim, so every escape is unknown."""
        text = ('<http://x.org/a> <http://x.org/p> <http://x.org/b> .\n'
                f'<http://x.org/a> <http://x.org/p> "1{escape}"^^<{Datatype.DOUBLE.iri}> .\n')
        with pytest.raises(ParseError, match="not a double literal") as err:
            TripleStore.load(text)
        assert err.value.line_number == 2

    def test_inferred_marks_not_persisted(self):
        store = TripleStore()
        store.insert(t("A", "subClassOf", "B"))
        store.insert(t("B", "subClassOf", "C"))
        store.saturate(NS)
        loaded = TripleStore.load(store.serialize())
        derived = t("A", "subClassOf", "C")
        assert derived in loaded and not loaded.is_inferred(derived)


def accepted(build, texts):
    """The terms ``build`` makes of ``texts``, skipping those it refuses."""
    def attempt(text):
        try:
            return build(text)
        except ValueError:
            return None
    return texts.map(attempt).filter(lambda term: term is not None)


# characters that end a term, a line or a literal, mixed into arbitrary text
_AWKWARD = st.sampled_from(' \t\n\r\x0b\x0c\x1c\x85\u2028"\\<>^_.#:/')
IRIS = accepted(Iri, st.tuples(st.sampled_from(["http://x.org/", "urn://a", "ex:", "rdf:"]),
                               st.text(st.one_of(_AWKWARD, st.characters()))).map("".join))
DOUBLES = accepted(lambda text: Literal(text, Datatype.DOUBLE), st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(canonical_double),
    st.text(st.one_of(st.sampled_from("0123456789\u0661"), st.sampled_from("+-_.eEinfa"),
                      _AWKWARD), min_size=1)))
DATETIMES = st.integers(0, MAX_UTC_INSTANT).map(
    lambda ts: Literal(format_utc_instant(ts), Datatype.DATETIME))


class TestRoundTrip:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.builds(Triple, IRIS, IRIS, st.one_of(IRIS, DOUBLES, DATETIMES)))
    def test_every_accepted_triple_is_one_line_that_loads_back(self, triple):
        store = TripleStore()
        store.insert(triple)
        text = store.serialize()
        assert len(text.splitlines()) == 1 and text.endswith("\n")
        loaded = TripleStore.load(text)
        assert set(loaded) == {triple}
        assert loaded.serialize() == text

    def test_a_double_holding_a_line_break_or_space_is_refused(self):
        # space, tab and every line break str.splitlines knows
        for char in " \t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            for lexical in ("1" + char, char + "1"):
                with pytest.raises(ValueError):
                    Literal(lexical, Datatype.DOUBLE)

    def test_an_iri_holding_a_closing_bracket_is_refused(self):
        for value in ("http://x.org/a>b", "ex:a>", "urn://>"):
            with pytest.raises(ValueError):
                Iri(value)


class TestBuiltinRules:
    def test_influenced_by_is_not_transitive(self):
        store = TripleStore()
        store.insert(t("soilMoisture", "influencedBy", "airTemperature"))
        store.insert(t("airTemperature", "influencedBy", "windSpeed"))
        store.saturate(NS)
        assert t("soilMoisture", "influencedBy", "windSpeed") not in store

    def test_subproperty_propagates_predicates(self):
        store = TripleStore()
        store.insert(t("hasValue", "subPropertyOf", "hasQuantity"))
        store.insert(t("o1", "hasValue", "v"))
        store.saturate(NS)
        assert t("o1", "hasQuantity", "v") in store
