"""The four benchmark workloads, each driving the program through its
public APIs with one closed-loop client.

A workload builds its live system in :meth:`Workload.setup` (a
generator that yields between set-up steps, so the harness can read the
host-speed probe between them), yields
operations from :meth:`Workload.next_op` and checks every response's
digest against a different engine in :meth:`Workload.verify`, outside
the timed region.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
import urllib.parse
from collections import defaultdict

from repro.core.config import OptimizationConfig
from repro.distributed import PooledShardTransport, ShardedEngine, ShardedStore
from repro.engines import (
    ALL_ENGINES,
    EmptyHeadedEngine,
    LogicBloxLikeEngine,
    TripleBitLikeEngine,
)
from repro.service import QueryService
from repro.service.formats import lexical_from_json, read_binary
from repro.service.http import SparqlHttpServer
from repro.service.protocol import UpdateRequest
from repro.storage.vertical import vertically_partition

import data as inputs
from harness import (
    geomean,
    percentile,
    proc_peak_rss_mb,
    relation_digest,
    rows_digest,
)

EH = EmptyHeadedEngine.name

#: Table I: the paper's leave-one-out ablations and the queries it lists.
TABLE1_QUERY_IDS = (1, 2, 4, 7, 8, 14)
ABLATIONS = {
    "layout": OptimizationConfig.all_on().but(mixed_layouts=False),
    "attribute": OptimizationConfig.all_on().but(reorder_selections=False),
    "ghd": OptimizationConfig.all_on().but(ghd_selection_pushdown=False),
    "pipelining": OptimizationConfig.all_on().but(pipelining=False),
}

#: Reference engine per paper query for the update-mix checks: the
#: faster of TripleBit-like and LogicBlox-like on the benchmark's data.
_LOGICBLOX_REFERENCE = {2, 8, 9, 11}


class Verifier:
    """Collects response digests and counts those a reference rejects."""

    def __init__(self) -> None:
        self.observed: dict[object, list[str]] = defaultdict(list)
        self.checked = 0
        self.mismatches = 0

    def note(self, key, digest: str) -> None:
        self.observed[key].append(digest)

    def judge(self, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.mismatches += 1

    def check_all(self, reference) -> None:
        """Compare every noted digest with ``reference(key)``."""
        for key, digests in self.observed.items():
            expected = reference(key)
            for digest in digests:
                self.judge(digest == expected)
        self.observed.clear()


class Workload:
    """Base class: a set of request classes over one live system."""

    name = ""
    #: Run the whole process on one CPU (workloads without worker
    #: processes).
    PIN_CPU = True
    #: Add thread hand-offs to the host-speed probe (workloads whose
    #: requests cross threads or processes).
    HANDOFF_PROBE = False

    def eh_classes(self, classes):
        """The read classes ``eh_geomean_ms`` covers: all of them, unless
        the workload mixes engines."""
        return classes

    def __init__(self, data: inputs.LubmInput, tracer=None) -> None:
        self.data = data
        self.tracer = tracer
        self.tracing = False
        self.rng = random.Random(data.seed)
        self.verifier = Verifier()
        self.failed = 0

    # Subclasses implement setup/teardown/next_op/verify.
    def layer_tables(self) -> dict:
        """The loaded predicate tables (name -> relation)."""
        return self.store.tables

    def rss_mb(self) -> float:
        return 0.0

    def _request_span(self):
        if self.tracing:
            self.tracer.new_request()
            return self.tracer.begin("request")
        return None

    def _end_span(self, index) -> None:
        if index is not None:
            self.tracer.end(index)


# ----------------------------------------------------------------------
class PaperTables(Workload):
    """Table II's five engines x twelve queries, plus Table I's
    leave-one-out EmptyHeaded variants on its six queries."""

    name = "paper-tables"
    #: Extra EmptyHeaded executions per round: EH takes under 2% of a
    #: round, so its cells get more samples for ``eh_geomean_ms``.
    EXTRA_EH_RUNS = 7

    def eh_classes(self, classes):
        return [c for c in classes if c.startswith(EH + "/")]

    def setup(self):
        store = vertically_partition(self.data.triples)
        yield
        engines = {cls.name: cls(store) for cls in ALL_ENGINES}
        for label, config in ABLATIONS.items():
            engines[f"no-{label}"] = EmptyHeadedEngine(store, config)
        self.store, self.engines = store, engines
        self.engine = engines[EH]
        self.slots = [
            ("read", name, qid)
            for name in (cls.name for cls in ALL_ENGINES)
            for qid in self.data.query_ids
        ] + [
            ("read", EH, qid)
            for _ in range(self.EXTRA_EH_RUNS)
            for qid in self.data.query_ids
        ] + [
            ("ablation", f"no-{label}", qid)
            for label in ABLATIONS
            for qid in TABLE1_QUERY_IDS
        ]
        for _, name, qid in dict.fromkeys(self.slots):
            yield
            engines[name].execute_sparql(self.data.queries[qid])
        self._round: list = []

    def teardown(self) -> None:
        self.engines = {}

    def next_op(self):
        if not self._round:
            self._round = list(self.slots)
            self.rng.shuffle(self._round)
        kind, name, qid = self._round.pop()
        engine, text = self.engines[name], self.data.queries[qid]
        span = self._request_span()
        start = time.perf_counter()
        relation = engine.execute_sparql(text)
        elapsed = time.perf_counter() - start
        self._end_span(span)
        return kind, f"{name}/q{qid}", elapsed, (
            lambda: self.verifier.note(qid, relation_digest(relation))
        )

    def verify(self) -> None:
        triplebit = TripleBitLikeEngine(self.store)
        logicblox = LogicBloxLikeEngine(self.store)

        def reference(qid):
            text = self.data.queries[qid]
            expected = relation_digest(triplebit.execute_sparql(text))
            # The two references must agree with each other too.
            self.verifier.judge(
                expected == relation_digest(logicblox.execute_sparql(text))
            )
            return expected

        self.verifier.check_all(reference)


# ----------------------------------------------------------------------
def _json_rows(body: bytes):
    payload = json.loads(body)
    names = payload["head"]["vars"]
    return [
        tuple(
            lexical_from_json(b[n]) if n in b else None for n in names
        )
        for b in payload["results"]["bindings"]
    ]


def _binary_rows(body: bytes):
    return read_binary(body)[1]


class ServeHttp(Workload):
    """The stdlib SPARQL endpoint over EmptyHeaded, driven over the wire."""

    name = "serve-http"
    HANDOFF_PROBE = True
    FORMATS = (("json", _json_rows), ("binary", _binary_rows))
    #: Request kind -> (text, template parameter or None, stream).
    KINDS = {
        "course": (inputs.COURSE_TEMPLATE, "course", False),
        "author": (inputs.AUTHOR_TEMPLATE, "author", False),
        "advisor": (inputs.ADVISOR_TEMPLATE, "advisor", False),
        "dept": (inputs.DEPARTMENT_TEMPLATE, "dept", False),
        "adhoc": (inputs.ADHOC_TEXT, None, False),
        "stream_q14": (inputs.STREAM_Q14, None, True),
        "stream_q8": (inputs.STREAM_Q8, "univ", True),
    }

    def __init__(self, data, tracer=None) -> None:
        super().__init__(data, tracer)
        self.domains = inputs.serving_domains(data)
        self._format = 0

    def _value(self, kind: str, pick) -> str | None:
        """The request's value: a template parameter, or the advisor
        inlined into an ad-hoc text."""
        parameter = self.KINDS[kind][1]
        if kind == "adhoc":
            return pick(self.domains["advisor"])
        return pick(self.domains[parameter]) if parameter else None

    def _text(self, kind: str, value) -> str:
        text = self.KINDS[kind][0]
        return text.format(professor=value) if kind == "adhoc" else text

    def _request(self, kind: str, value, fmt: str) -> dict:
        _, parameter, stream = self.KINDS[kind]
        params = {"query": self._text(kind, value), "format": fmt}
        if parameter:
            params[f"${parameter}"] = value
        if stream:
            params["stream"] = "true"
        return params

    def _get(self, params: dict) -> tuple[int, bytes]:
        self.client.request("GET", "/sparql?" + urllib.parse.urlencode(params))
        response = self.client.getresponse()
        return response.status, response.read()

    def setup(self):
        store = vertically_partition(self.data.triples)
        yield
        self.store = store
        self.engine = EmptyHeadedEngine(store)
        self.service = QueryService(self.engine)
        self.server = SparqlHttpServer(self.service, port=0).start()
        host, port = self.server.server_address[:2]
        self.client = http.client.HTTPConnection(host, port)
        for kind in self.KINDS:
            for fmt, _ in self.FORMATS:
                yield
                value = self._value(kind, lambda domain: domain[0])
                status, _ = self._get(self._request(kind, value, fmt))
                if status != 200:
                    raise RuntimeError(f"warm-up of {kind} answered {status}")
        self._round: list = []

    def teardown(self) -> None:
        self.client.close()
        self.server.stop()

    def next_op(self):
        if not self._round:
            self._round = list(self.KINDS) * 2
            self.rng.shuffle(self._round)
        kind = self._round.pop()
        fmt, decode = self.FORMATS[self._format]
        self._format ^= 1
        value = self._value(kind, self.rng.choice)
        params = self._request(kind, value, fmt)
        span = self._request_span()
        start = time.perf_counter()
        status, body = self._get(params)
        elapsed = time.perf_counter() - start
        self._end_span(span)

        def after():
            if status != 200:
                self.failed += 1
                return
            rows = decode(body)
            if self.KINDS[kind][2]:
                self.verifier.note((kind, value), tuple(rows))
            else:
                self.verifier.note((kind, value), rows_digest(rows))

        return "read", f"{kind}/{fmt}", elapsed, after

    def verify(self) -> None:
        reference = QueryService(TripleBitLikeEngine(self.store))
        for (kind, value), observed in self.verifier.observed.items():
            _, parameter, stream = self.KINDS[kind]
            text = self._text(kind, value)
            if stream:
                text = text.rsplit(" LIMIT", 1)[0]
            relation = reference.execute(
                text, parameters={parameter: value} if parameter else None
            )
            rows = reference.engine.decode(relation)
            truth = set(rows) if stream else rows_digest(rows)
            for got in observed:
                if stream:
                    # A LIMIT page of an unordered query: any
                    # min(10, total) rows of the full answer.
                    ok = len(got) == min(10, len(truth)) and set(got) <= truth
                else:
                    ok = got == truth
                self.verifier.judge(ok)
        self.verifier.observed.clear()

    def counters(self) -> dict:
        stats = self.service.stats
        statements = [self.service.prepare(t) for t in self.service.cached_texts()]
        return {
            "statement_hits": stats.hits,
            "statement_misses": stats.misses,
            "bind_hits": sum(s.stats.bind_hits for s in statements),
            "bind_misses": sum(s.stats.bind_misses for s in statements),
            "result_hits": sum(s.stats.result_hits for s in statements),
            "executions": stats.executions,
        }


# ----------------------------------------------------------------------
class UpdateMix(Workload):
    """Session writes interleaved with reads of the twelve paper queries."""

    name = "update-mix"
    #: Distinct paper queries read between two writes (no text repeats,
    #: so no read is answered by a result cache).
    READS_PER_WRITE = 8

    def setup(self):
        store = vertically_partition(self.data.triples)
        yield
        self.store = store
        self.engine = EmptyHeadedEngine(store)
        self.service = QueryService(self.engine)
        self.session = self.service.session()
        for qid in self.data.query_ids:
            yield
            self._read(qid)
        self.stream = inputs.UpdateStream(self.data)
        self.writes = 0
        self._plan: list = []
        self._references: dict = {}

    def teardown(self) -> None:
        self.session.close()

    def _read(self, qid: int):
        """Execute and fetch the first page, as a paging client does."""
        cursor = self.session.execute(self.data.queries[qid])
        try:
            cursor.fetch()
            return cursor.relation
        finally:
            cursor.close()

    def _reference_digest(self, qid: int) -> str:
        """The digest a reference engine over the same store answers now
        (same epoch as the read just served); built on first use."""
        if not self._references:
            self._references = {
                "triplebit": TripleBitLikeEngine(self.store),
                "logicblox": LogicBloxLikeEngine(self.store),
            }
        name = "logicblox" if qid in _LOGICBLOX_REFERENCE else "triplebit"
        return relation_digest(
            self._references[name].execute_sparql(self.data.queries[qid])
        )

    def next_op(self):
        if not self._plan:
            self._plan = ["write"] + self.rng.sample(
                list(self.data.query_ids), self.READS_PER_WRITE
            )
        step = self._plan.pop(0)
        if step == "write":
            add, remove = self.stream.batch(self.writes)
            self.writes += 1
            request = UpdateRequest(add=add, remove=remove)
            span = self._request_span()
            start = time.perf_counter()
            self.session.update(request)
            elapsed = time.perf_counter() - start
            self._end_span(span)
            return "write", "update", elapsed, None
        qid = step
        span = self._request_span()
        start = time.perf_counter()
        relation = self._read(qid)
        elapsed = time.perf_counter() - start
        self._end_span(span)
        # Checked at once, outside the timed region, against the state
        # right after the preceding write: a write that did not become
        # visible to the next read is a mismatch.
        return "read", f"q{qid}", elapsed, lambda: self.verifier.judge(
            relation_digest(relation) == self._reference_digest(qid)
        )

    def verify(self) -> None:
        """Every read was checked in line (see :meth:`next_op`)."""

    counters = ServeHttp.counters


# ----------------------------------------------------------------------
class ShardedPool(Workload):
    """Two subject-hash shards, one worker process each, scatter-gather."""

    name = "sharded-pool"
    #: The shards' workers must run in parallel on their own CPUs.
    PIN_CPU = False
    HANDOFF_PROBE = True
    SHARDS = 2

    def setup(self):
        self.sharded = ShardedStore.partition(self.data.triples, self.SHARDS)
        yield
        self.transport = PooledShardTransport(
            self.sharded, workers_per_shard=1, prefix=f"perfbench{os.getpid()}-"
        )
        self.engine = ShardedEngine(self.sharded, transport=self.transport)
        for qid in self.data.query_ids:
            yield
            self.engine.execute_sparql(self.data.queries[qid])
        self._round: list = []

    def teardown(self) -> None:
        self.transport.close()

    def layer_tables(self) -> dict:
        return self.sharded.tables

    def rss_mb(self) -> float:
        """Peak RSS of the shard workers."""
        return sum(
            proc_peak_rss_mb(worker["pid"])
            for pool in self.transport.stats()["pools"]
            for worker in pool["workers"]
        )

    def next_op(self):
        if not self._round:
            self._round = list(self.data.query_ids)
            self.rng.shuffle(self._round)
        qid = self._round.pop()
        span = self._request_span()
        start = time.perf_counter()
        relation = self.engine.execute_sparql(self.data.queries[qid])
        elapsed = time.perf_counter() - start
        self._end_span(span)
        return "read", f"q{qid}", elapsed, (
            lambda: self.verifier.note(qid, relation_digest(relation))
        )

    def verify(self) -> None:
        # The sharded dictionary is key-for-key the single store's, so
        # encoded digests compare directly.
        reference = TripleBitLikeEngine(vertically_partition(self.data.triples))
        self.verifier.check_all(
            lambda qid: relation_digest(
                reference.execute_sparql(self.data.queries[qid])
            )
        )


WORKLOADS = {
    cls.name: cls for cls in (PaperTables, ServeHttp, UpdateMix, ShardedPool)
}


def read_metrics(samples, workload) -> dict:
    """The latency metrics every workload reports (scaled, in ms)."""
    classes = samples.class_medians("read")
    eh = [classes[c] for c in workload.eh_classes(sorted(classes))]
    return {
        "read_geomean_ms": geomean(classes.values()),
        "eh_geomean_ms": geomean(eh),
        "read_p99_ms": percentile(samples.pooled("read"), 0.99),
        "throughput_ops": samples.ops / samples.scaled_busy_s,
    }


__all__ = ["WORKLOADS", "read_metrics"]
