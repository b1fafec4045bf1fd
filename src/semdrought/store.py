"""Embedded triple store.

Set-semantics storage with pattern matching, conjunctive (natural-join)
queries, saturation under the four built-in RDFS rules over the class and
property hierarchies, and a deterministic line-oriented N-Triples subset
for persistence: one triple per line, of IRIs and ``xsd:double`` or
``xsd:dateTime`` literals, written verbatim (no term holds whitespace, a
quote, a backslash or a '>'), with no blank nodes, escapes, language tags
or comments.
"""

import re
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import SemDroughtError
from .model import Datatype, Iri, Literal, Namespaces, Term, Triple

_VARIABLE_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class StoreError(SemDroughtError):
    code = "StoreError"


class ParseError(StoreError):
    code = "ParseError"

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not _VARIABLE_NAME.fullmatch(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


PatternTerm = Term | Variable


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Variable)}


Binding = dict[str, Term]


def _substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    def sub(t: PatternTerm) -> PatternTerm:
        if isinstance(t, Variable) and t.name in binding:
            return binding[t.name]
        return t
    return TriplePattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object))


def _unify(pattern: TriplePattern, triple: Triple) -> Binding | None:
    binding: Binding = {}
    for slot, value in ((pattern.subject, triple.subject),
                        (pattern.predicate, triple.predicate),
                        (pattern.object, triple.object)):
        if isinstance(slot, Variable):
            seen = binding.get(slot.name)
            if seen is None:
                binding[slot.name] = value
            elif seen != value:
                return None
        elif slot != value:
            return None
    return binding


class TripleStore:
    """In-memory triple set with inferred-triple marks."""

    def __init__(self):
        self._triples: set[Triple] = set()
        self._inferred: set[Triple] = set()

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __iter__(self):
        return iter(self._triples)

    def is_inferred(self, triple: Triple) -> bool:
        return triple in self._inferred

    def insert(self, triple: Triple, inferred: bool = False) -> bool:
        """Add one triple; True iff it was not already present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        if inferred:
            self._inferred.add(triple)
        return True

    def match_pattern(self, pattern: TriplePattern) -> list[Binding]:
        """One binding per unifying triple, in no fixed order; distinct
        triples give distinct bindings. Ground patterns yield [{}] if present."""
        out: list[Binding] = []
        for triple in self._triples:
            binding = _unify(pattern, triple)
            if binding is not None:
                out.append(binding)
        return out

    def query_bgp(self, patterns: list[TriplePattern]) -> list[Binding]:
        """Natural join of the per-pattern solutions on shared variables,
        sorted by the bindings' term texts."""
        if not patterns:
            raise ValueError("query needs at least one pattern")
        solutions: list[Binding] = [{}]
        for pattern in patterns:
            next_solutions: list[Binding] = []
            for binding in solutions:
                for extension in self.match_pattern(_substitute(pattern, binding)):
                    merged = dict(binding)
                    merged.update(extension)
                    next_solutions.append(merged)
            solutions = next_solutions
            if not solutions:
                break
        solutions.sort(key=lambda b: sorted((k, term_text(v)) for k, v in b.items()))
        return solutions

    def saturate(self, ns: Namespaces) -> int:
        """Close the store under the built-in rules, RDFS entailment rules
        rdfs5, rdfs7, rdfs9 and rdfs11: both hierarchies are transitive,
        ``rdf:type`` climbs the class hierarchy and a triple holds under each
        super-property of its predicate. Marks and counts what is derived."""
        rdf_type, sub_class, sub_property = (
            ns.iri(name) for name in ("rdf:type", "ex:subClassOf", "ex:subPropertyOf"))
        derived = 0
        while True:
            classes, properties, predicates = hierarchies(self._triples, ns)
            ups = {sub_class: classes, rdf_type: classes, sub_property: properties}
            new = {Triple(t.subject, t.predicate, up) for t in self._triples
                   for up in ups.get(t.predicate, {}).get(t.object, ())}
            new.update(Triple(t.subject, q, t.object) for t in self._triples
                       for q in predicates.get(t.predicate, ()))
            new -= self._triples
            if not new:
                return derived
            self._triples |= new
            self._inferred |= new
            derived += len(new)

    # -- persistence --------------------------------------------------------

    def serialize(self, extra_lines: Iterable[str] = ()) -> str:
        """One triple per line, merged with ``extra_lines`` (triples already
        rendered by ``triple_text``), deduplicated and lexicographically
        sorted; inferred marks dropped."""
        lines = {triple_text(t) for t in self._triples}
        lines.update(extra_lines)
        return "".join(line + "\n" for line in sorted(lines))

    @classmethod
    def load(cls, text: str) -> "TripleStore":
        """The triples of each non-blank line of an N-Triples document;
        raises ParseError, with its line number, on the first bad line."""
        store = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                store.insert(_parse_line(line, number))
        return store


def hierarchies(triples: Iterable[Triple], ns: Namespaces) -> tuple[dict, dict, dict]:
    """The hierarchies of ``triples`` one step up, as the built-in rules read
    them: each subject of an ``ex:subClassOf`` or ``ex:subPropertyOf`` triple
    to its objects, and each property to its super-properties that are IRIs,
    the only ones a triple can take as predicate. Of a saturated store, the
    closures."""
    sub_class, sub_property = ns.iri("ex:subClassOf"), ns.iri("ex:subPropertyOf")
    classes, properties, predicates = defaultdict(list), defaultdict(list), defaultdict(list)
    for t in triples:
        if t.predicate == sub_class:
            classes[t.subject].append(t.object)
        elif t.predicate == sub_property:
            properties[t.subject].append(t.object)
            if isinstance(t.object, Iri):
                predicates[t.subject].append(t.object)
    return classes, properties, predicates


def term_text(term: Term) -> str:
    """A term as it appears in an N-Triples line."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{term.lexical}"^^<{term.datatype.iri}>'


def triple_text(triple: Triple) -> str:
    """A triple as one N-Triples line."""
    return (f"{term_text(triple.subject)} {term_text(triple.predicate)} "
            f"{term_text(triple.object)} .")


_IRI = r"<([^>\s]+)>"
_LINE = re.compile(rf'{_IRI}\s+{_IRI}\s+(?:{_IRI}|"([^"]*)"\^\^{_IRI})\s+\.\s*')

_DATATYPES = {d.iri: d for d in Datatype}


def _parse_line(line: str, number: int) -> Triple:
    match = _LINE.fullmatch(line)
    if match is None:
        raise ParseError(number, f"not a triple line: {line!r}")
    subject, predicate, obj, lexical, datatype = match.groups()
    if obj is None and datatype not in _DATATYPES:
        raise ParseError(number, f"unsupported datatype <{datatype}>")
    try:
        return Triple(Iri(subject), Iri(predicate),
                      Iri(obj) if obj is not None else Literal(lexical, _DATATYPES[datatype]))
    except ValueError as exc:
        raise ParseError(number, str(exc))
