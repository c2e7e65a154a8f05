"""Workload inputs made from the seed: LUBM triples, update batches, values.

The program under test receives only what this module generates: the
string triples it loads, the SPARQL texts and parameter values it
answers, and the add/remove batches it commits.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict

from repro.lubm import GeneratorConfig, generate_triples, lubm_queries
from repro.lubm.queries import PAPER_QUERY_IDS
from repro.rdf.vocabulary import UB

#: LUBM scale of every workload: five universities cut to their first
#: fifteen departments (the generator draws 15 to 25 per university),
#: about 440k triples. Every seed then yields the same number of
#: departments, so data size varies little between seeds while each
#: department's contents stay random.
UNIVERSITIES = 5
DEPARTMENTS = 15

_DEPARTMENT_RE = re.compile(r"<http://www\.Department(\d+)\.University")

PREFIXES = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>
"""


def _kept(term: str) -> bool:
    match = _DEPARTMENT_RE.match(term)
    return match is None or int(match.group(1)) < DEPARTMENTS


class LubmInput:
    """The generated LUBM graph of one seed plus indexes over it."""

    def __init__(self, seed: int, universities: int = UNIVERSITIES) -> None:
        self.seed = seed
        self.config = GeneratorConfig(universities=universities, seed=seed)
        self.triples = [
            t for t in generate_triples(self.config)
            if _kept(t.subject) and _kept(t.object)
        ]
        self.queries = lubm_queries(self.config)
        self.query_ids = PAPER_QUERY_IDS
        self._by_predicate: dict[str, list] | None = None

    def by_predicate(self) -> dict[str, list[tuple[str, str]]]:
        """(subject, object) pairs per predicate IRI."""
        if self._by_predicate is None:
            grouped: dict[str, list] = defaultdict(list)
            for s, p, o in self.triples:
                grouped[p].append((s, o))
            self._by_predicate = dict(grouped)
        return self._by_predicate



# ----------------------------------------------------------------------
# Update batches (update-mix)
# ----------------------------------------------------------------------
#: A committed move is reverted this many writes later, so the store
#: stays within a few hundred triples of the loaded graph.
REVERT_AFTER = 24


class UpdateStream:
    """LUBM-shaped reorganisation batches: faculty move departments,
    students change advisor, departments gain research groups and new
    chairs.

    Write ``k`` applies move ``k`` and reverts move ``k - REVERT_AFTER``.
    ``headOf`` (one row per department) gains a delta row per write and
    loses one per revert, so its delta passes the store's compaction
    threshold (a quarter of the main segment) every few dozen writes:
    compaction fires several times per run at the default
    ``DeltaConfig``.
    """

    def __init__(self, data: LubmInput) -> None:
        pairs = data.by_predicate()
        self._works = sorted(pairs[UB.worksFor])
        self._advisors = sorted(pairs[UB.advisor])
        self._departments = sorted({o for _, o in self._works})
        self._rng = random.Random(data.seed * 7919 + 17)
        self._moves: list[tuple[tuple, tuple]] = []

    def _move(self, k: int) -> tuple[tuple, tuple]:
        rng = self._rng
        professor, department = self._works[rng.randrange(len(self._works))]
        target = self._departments[rng.randrange(len(self._departments))]
        student, advisor = self._advisors[rng.randrange(len(self._advisors))]
        new_advisor = self._works[rng.randrange(len(self._works))][0]
        group = f"{target[:-1]}/BenchResearchGroup{k}>"
        add = (
            (professor, UB.worksFor, target),
            (professor, UB.headOf, target),
            (student, UB.advisor, new_advisor),
            (group, UB.subOrganizationOf, target),
        )
        remove = (
            (professor, UB.worksFor, department),
            (student, UB.advisor, advisor),
        )
        return add, remove

    def batch(self, k: int) -> tuple[tuple, tuple]:
        """``(add, remove)`` triples of write ``k`` (deterministic)."""
        while len(self._moves) <= k:
            self._moves.append(self._move(len(self._moves)))
        add, remove = self._moves[k]
        if k >= REVERT_AFTER:
            old_add, old_remove = self._moves[k - REVERT_AFTER]
            add = add + old_remove
            remove = remove + old_add
        return add, remove


# ----------------------------------------------------------------------
# Request classes of serve-http
# ----------------------------------------------------------------------
COURSE_TEMPLATE = PREFIXES + (
    "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . "
    "?X ub:takesCourse $course }"
)
AUTHOR_TEMPLATE = PREFIXES + (
    "SELECT ?X WHERE { ?X rdf:type ub:Publication . "
    "?X ub:publicationAuthor $author }"
)
ADVISOR_TEMPLATE = PREFIXES + (
    "SELECT ?X ?Y WHERE { ?X ub:advisor $advisor . ?X ub:name ?Y }"
)
DEPARTMENT_TEMPLATE = PREFIXES + (
    "SELECT ?X ?Y WHERE { ?X rdf:type ub:FullProfessor . "
    "?X ub:worksFor $dept . ?X ub:emailAddress ?Y }"
)
#: Ad-hoc text with the value inlined: every request is a new text.
ADHOC_TEXT = PREFIXES + (
    "SELECT ?X ?C WHERE {{ ?X ub:advisor {professor} . "
    "?X ub:takesCourse ?C }}"
)
#: ``stream=true`` first pages (LIMIT 10) over the Q14 and Q8 shapes;
#: the Q8 page asks for a university drawn per request.
STREAM_Q14 = PREFIXES + (
    "SELECT ?X WHERE { ?X rdf:type ub:UndergraduateStudent } LIMIT 10"
)
STREAM_Q8 = PREFIXES + (
    "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:UndergraduateStudent . "
    "?Y rdf:type ub:Department . ?X ub:memberOf ?Y . "
    "?Y ub:subOrganizationOf $univ . ?X ub:emailAddress ?Z } LIMIT 10"
)


def serving_domains(data: LubmInput) -> dict[str, list[str]]:
    """Parameter value domains of the serving templates."""
    pairs = data.by_predicate()
    return {
        "course": sorted({o for _, o in pairs[UB.takesCourse]}),
        "author": sorted({o for _, o in pairs[UB.publicationAuthor]}),
        "advisor": sorted({o for _, o in pairs[UB.advisor]}),
        "dept": sorted({o for _, o in pairs[UB.worksFor]}),
        "univ": sorted(
            {o for _, o in pairs[UB.subOrganizationOf] if "Department" not in o}
        ),
    }
