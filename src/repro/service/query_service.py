"""A serving layer over any engine: prepared statements, concurrency,
warming, batching, and update-safe invalidation.

Production RDF stores pair their join algorithms with a query-service
tier that amortizes compilation over repeated traffic (the RDF-store
survey's "query processing" layer; EmptyHeaded itself caches compiled
queries across back-to-back benchmark runs). :class:`QueryService`
provides that tier for every engine in this library:

* **Prepared-statement cache** — :meth:`prepare` turns a query text
  (optionally a ``$parameter`` template) into a
  :class:`~repro.service.prepared.PreparedStatement`, LRU-cached per
  text. A hit skips the SPARQL front-end entirely; the statement's own
  caches skip binding and planning for repeated parameter values.
* **Concurrent execution** — :meth:`execute_concurrent` answers a batch
  of requests on a thread pool over the engine's read-only catalogs.
  Every cache on the path (statement cache, bound-plan caches, engine
  plan cache, trie cache) is thread-safe, and results are identical to
  serial execution.
* **Update safety** — the store's
  :meth:`~repro.storage.vertical.VerticallyPartitionedStore.add_triples`
  / ``remove_triples`` bump a data-version epoch; statements, engine
  plan caches, trie caches, and the ``__triples__`` view all check it,
  so a mutated store never serves a stale bound plan. Updates are
  **incremental** end to end: engines patch their indexes from the
  store's delta log (wholesale rebuilds only past a delta-fraction
  threshold), and prepared statements keep their provably-still-valid
  bound plans across epochs instead of re-warming from zero — only
  cached results (whose rows the update may have changed) drop.
* **Catalog warming** — :meth:`warm` prepares queries and pre-builds
  every trie index their plans will probe (without executing), so the
  first live request after a deploy does not pay index construction.
* **Batched execution** — :meth:`execute_many` answers a batch of query
  texts, executing each *distinct* text once and fanning the result out
  to duplicate positions.

Example::

    from repro import EmptyHeadedEngine, generate_dataset
    from repro.service import QueryService

    dataset = generate_dataset(universities=1, seed=0)
    service = QueryService(EmptyHeadedEngine(dataset.store))

    stmt = service.prepare(
        "SELECT ?x WHERE { ?x <...advisor> $prof }"
    )
    rows = stmt.execute(prof="<http://...AssistantProfessor0>")

    service.warm([query_text])
    rows = service.execute(query_text)        # joins only, no parse/plan
    print(service.stats)                      # hits/misses/evictions
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from collections import OrderedDict
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.core.query import ParameterValue
from repro.engines.base import Engine
from repro.errors import ConfigError
from repro.service.prepared import PreparedStatement
from repro.storage.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.protocol import Session

#: One request for :meth:`QueryService.execute_concurrent`: a bare query
#: text, or ``(text, {param: value, ...})`` for a template.
Request = str | tuple[str, Mapping[str, ParameterValue]]


@dataclass
class ServiceStats:
    """Counters exposed for monitoring and benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    executions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class QueryService:
    """Wraps an :class:`~repro.engines.base.Engine` for repeated traffic."""

    def __init__(self, engine: Engine, cache_size: int = 128) -> None:
        if cache_size < 1:
            raise ConfigError("QueryService cache_size must be >= 1")
        self.engine = engine
        self.cache_size = cache_size
        self.stats = ServiceStats()
        self._cache: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._lock = threading.RLock()
        self._data_version = engine.store.data_version
        self._session: "Session | None" = None

    # ------------------------------------------------------------------
    # Preparation (the cached parse -> translate pipeline)
    # ------------------------------------------------------------------
    def prepare(self, text: str, name: str = "query") -> PreparedStatement:
        """The cached prepared statement for a query text (LRU-tracked).

        Works for plain queries and ``$parameter`` templates alike; a
        plain query is simply a statement with no parameters.
        """
        with self._lock:
            if self._data_version != self.engine.store.data_version:
                # Statements re-bind lazily via their own epoch check;
                # the service only surfaces the event in its stats.
                self.stats.invalidations += 1
                self._data_version = self.engine.store.data_version
            statement = self._cache.get(text)
            if statement is not None:
                self.stats.hits += 1
                self._cache.move_to_end(text)
                return statement
            self.stats.misses += 1
        # Parse + translate outside the lock so concurrent misses on
        # *different* texts don't serialize; a race on the same text is
        # resolved below (first insert wins, like Engine.prepare_sparql).
        statement = PreparedStatement(self.engine, text, name=name)
        with self._lock:
            existing = self._cache.get(text)
            if existing is not None:
                return existing
            self._cache[text] = statement
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self.stats.evictions += 1
            return statement

    # ------------------------------------------------------------------
    # Sessions (the protocol layer's entry point)
    # ------------------------------------------------------------------
    def session(
        self,
        *,
        max_open_cursors: int = 64,
        default_page_size: int | None = None,
        timeout_s: float | None = None,
        deadline_workers: int = 4,
    ) -> "Session":
        """Open a protocol :class:`~repro.service.protocol.Session`.

        The session API — prepare, execute into a streaming cursor,
        fetch in pages, close — is the primary public surface; the
        ``execute*`` methods below are thin shims over a shared default
        session, so in-process callers and the HTTP front-end exercise
        one code path.
        """
        from repro.service.protocol import DEFAULT_PAGE_SIZE, Session

        return Session(
            self,
            max_open_cursors=max_open_cursors,
            default_page_size=default_page_size or DEFAULT_PAGE_SIZE,
            timeout_s=timeout_s,
            deadline_workers=deadline_workers,
        )

    def _default_session(self) -> "Session":
        # The shared shim session: roomy cursor bound (shim calls close
        # their cursor before returning, so only in-flight requests
        # hold slots) and no deadline.
        with self._lock:
            session = self._session
            if session is None or session.closed:
                session = self._session = self.session(
                    max_open_cursors=4096
                )
            return session

    def _note_execution(self) -> None:
        """Session callback: one request answered (stats accounting)."""
        with self._lock:
            self.stats.executions += 1

    # ------------------------------------------------------------------
    # Execution (shims over the session API)
    # ------------------------------------------------------------------
    def execute(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> Relation:
        """Answer one query; repeat texts skip parsing and planning.

        ``parameters`` supplies values for a ``$parameter`` template
        (exactly the template's placeholders; a plain query takes none).
        """
        cursor = self._default_session().execute(
            text, parameters=parameters or {}, name=name
        )
        try:
            return cursor.relation
        finally:
            cursor.close()

    def execute_decoded(
        self,
        text: str,
        name: str = "query",
        parameters: Mapping[str, ParameterValue] | None = None,
    ) -> list[tuple[str | None, ...]]:
        """:meth:`execute`, decoded back to lexical terms (``None`` for
        variables an OPTIONAL row never bound)."""
        cursor = self._default_session().execute(
            text, parameters=parameters or {}, name=name
        )
        try:
            return cursor.fetch_all()
        finally:
            cursor.close()

    def executemany(
        self,
        text: str,
        param_rows: Iterable[Mapping[str, ParameterValue]],
    ) -> list[Relation]:
        """Answer one template for a batch of parameter rows (in order)."""
        return self._default_session().executemany(text, param_rows)

    def execute_many(self, texts: Sequence[str]) -> list[Relation]:
        """Answer a batch; each distinct text is executed exactly once.

        Results are returned in input order; duplicate texts within the
        batch share one execution (and one result object).
        """
        results: dict[str, Relation] = {}
        out: list[Relation] = []
        for text in texts:
            result = results.get(text)
            if result is None:
                result = self.execute(text)
                results[text] = result
            out.append(result)
        return out

    def execute_concurrent(
        self,
        requests: Sequence[Request],
        max_workers: int = 4,
    ) -> list[Relation]:
        """Answer a batch of requests on a thread pool, in input order.

        Each request is a query text or ``(text, parameters)``. The
        engine's catalogs are read-only for the whole batch and every
        cache on the path is thread-safe, so the returned rows are
        identical to serial execution of the same batch.
        """
        if max_workers < 1:
            raise ConfigError(
                "execute_concurrent max_workers must be >= 1"
            )

        def run(request: Request) -> Relation:
            if isinstance(request, str):
                return self.execute(request)
            text, parameters = request
            return self.execute(text, parameters=parameters)

        if len(requests) <= 1 or max_workers == 1:
            return [run(request) for request in requests]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, requests))

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------
    def warm(self, texts: Iterable[str]) -> int:
        """Prepare queries and pre-build the indexes their plans probe.

        For engines with a planner/trie-cache (the EmptyHeaded family)
        each parameterless query is planned and every trie the plan
        touches is built into the catalog cache without executing the
        join; templates are prepared (parse + translate) only — their
        plans depend on parameter values. Returns the number of tries
        warmed (0 for engines whose indexes are fully built at load
        time).
        """
        warmed = 0
        warm_indexes = getattr(self.engine, "warm_indexes", None)
        for text in texts:
            statement = self.prepare(text)
            if statement.parameters or warm_indexes is None:
                continue
            bound = statement.bind()
            if bound is not None:
                warmed += warm_indexes(bound)
        return warmed

    # ------------------------------------------------------------------
    def worker_count(self) -> int:
        """Processes executing queries: this one (``/stats`` reports it)."""
        return 1

    def cached_texts(self) -> list[str]:
        """Cached query texts, least- to most-recently used."""
        with self._lock:
            return list(self._cache)

    def clear(self) -> None:
        """Drop all cached statements (stats are preserved)."""
        with self._lock:
            self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"<QueryService engine={self.engine.name!r} "
            f"cached={len(self._cache)}/{self.cache_size} "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
