"""HTTP front-end: concurrency, wire conformance, error codes.

The server under test is a real :class:`SparqlHttpServer` on an
ephemeral loopback port — requests go through sockets, chunked
streaming, and the full session/cursor/serializer stack.
"""

import http.client
import json
import socket
import threading
import urllib.parse

import pytest

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.errors import ERROR_CODES
from repro.service import QueryService
from repro.service.formats import lexical_from_json, read_binary
from repro.service.http import MAX_BODY_BYTES, SparqlHttpServer
from repro.storage.vertical import vertically_partition

EX = "http://ex/"


def _triples(n=30):
    return [
        (
            f"<{EX}s{i}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 5}>" if i % 4 else f'"lit{i}"@en',
        )
        for i in range(n)
    ]


@pytest.fixture()
def server():
    service = QueryService(EmptyHeadedEngine(vertically_partition(_triples())))
    with SparqlHttpServer(service, port=0, max_workers=4) as srv:
        yield srv


def _get(server, path):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        connection.close()


def _post(server, path, body, content_type):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _sparql(params):
    return "/sparql?" + urllib.parse.urlencode(params)


def _json_rows(body):
    payload = json.loads(body)
    columns = payload["head"]["vars"]
    return [
        tuple(
            lexical_from_json(binding[name]) if name in binding else None
            for name in columns
        )
        for binding in payload["results"]["bindings"]
    ]


# ---------------------------------------------------------------------------
# Concurrency: N threads x M templates == serial in-process execution
# ---------------------------------------------------------------------------
def test_concurrent_clients_match_serial_in_process(server):
    templates = [
        (f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}", {}),
        (f"SELECT ?s WHERE {{ ?s <{EX}p1> ?o }} ", {}),
        (f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}", {"$who": f"<{EX}s2>"}),
        (f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }} LIMIT 7", {}),
        (
            f"SELECT ?s ?x WHERE {{ ?s <{EX}p0> ?o . "
            f"OPTIONAL {{ ?s <{EX}p1> ?x }} }}",
            {},
        ),
    ]
    service = server.service
    expected = {}
    for text, params in templates:
        values = {k[1:]: v for k, v in params.items()}
        expected[text] = service.engine.decode(
            service.execute(text, parameters=values)
        )

    n_threads, per_thread = 8, 6
    results: dict[tuple[int, int], tuple] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port)
        try:
            for i in range(per_thread):
                text, params = templates[(thread_id + i) % len(templates)]
                connection.request(
                    "GET", _sparql({"query": text, **params})
                )
                response = connection.getresponse()
                body = response.read()
                with lock:
                    results[(thread_id, i)] = (
                        text,
                        response.status,
                        body,
                    )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(results) == n_threads * per_thread
    # Byte-level check: identical requests get byte-identical bodies,
    # and every body decodes to exactly the serial in-process rows.
    bodies_by_text: dict[str, set[bytes]] = {}
    for text, status, body in results.values():
        assert status == 200
        bodies_by_text.setdefault(text, set()).add(body)
        assert _json_rows(body) == expected[text]
    for text, bodies in bodies_by_text.items():
        assert len(bodies) == 1, f"non-deterministic bytes for {text!r}"


# ---------------------------------------------------------------------------
# Malformed requests and the error-code contract
# ---------------------------------------------------------------------------
def _error(server, path):
    status, _, body = _get(server, path)
    payload = json.loads(body)["error"]
    return status, payload["code"]


def test_malformed_query_is_400_parse_error(server):
    assert _error(server, _sparql({"query": "SELEC nope"})) == (
        400,
        "parse_error",
    )


def test_unsupported_construct_is_400_translate_error(server):
    # Parses, but OPTIONAL-in-OPTIONAL is rejected at translation.
    query = (
        f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o . OPTIONAL {{ "
        f"?o <{EX}p1> ?x . OPTIONAL {{ ?x <{EX}p2> ?y }} }} }}"
    )
    assert _error(server, _sparql({"query": query})) == (
        400,
        "translate_error",
    )


def test_missing_query_is_400(server):
    assert _error(server, "/sparql") == (400, "parse_error")


def test_unknown_parameter_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": query, "oops": "1"})) == (
        400,
        "parse_error",
    )


def test_parameter_mismatch_is_400_parameter_error(server):
    template = f"SELECT ?o WHERE {{ $who <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": template})) == (
        400,
        "parameter_error",
    )
    assert _error(
        server,
        _sparql({"query": template, "$who": f"<{EX}s0>", "$bad": "x"}),
    ) == (400, "parameter_error")


def test_unknown_format_is_406(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(server, _sparql({"query": query, "format": "xml"})) == (
        406,
        "unsupported_format",
    )


def test_bad_page_size_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    # Not an integer at all: a parse error.
    assert _error(
        server, _sparql({"query": query, "page_size": "zero"})
    ) == (400, "parse_error")
    # Well-formed but out of domain: a parameter error, like the
    # in-process cursor raises.
    assert _error(
        server, _sparql({"query": query, "page_size": "0"})
    ) == (400, "parameter_error")
    assert _error(
        server, _sparql({"query": query, "page_size": "-3"})
    ) == (400, "parameter_error")


def test_streamed_response_is_byte_identical(server):
    query = (
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }} LIMIT 5 OFFSET 2"
    )
    plain = _get(server, _sparql({"query": query, "format": "json"}))
    streamed = _get(
        server,
        _sparql({"query": query, "format": "json", "stream": "true"}),
    )
    assert plain[0] == streamed[0] == 200
    assert plain[2] == streamed[2]


def test_bad_stream_flag_is_400(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(
        server, _sparql({"query": query, "stream": "maybe"})
    ) == (400, "parse_error")


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf"])
def test_bad_timeout_is_400(server, raw):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    assert _error(
        server, _sparql({"query": query, "timeout": raw})
    ) == (400, "parse_error")


@pytest.mark.parametrize(
    "length", ["abc", "-1", str(MAX_BODY_BYTES + 1)]
)
def test_bad_content_length_is_400(server, length):
    # Raw socket: http.client would compute a valid Content-Length.
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            (
                f"POST /update HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode("latin-1")
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
        # The body's end is unknown, so the server drops the connection.
        assert response.getheader("Connection") == "close"
        assert sock.recv(1) == b""
    assert response.status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"


def test_unknown_endpoint_is_404(server):
    assert _error(server, "/nope") == (404, "not_found")


def test_malformed_update_body_is_400(server):
    status, body = _post(server, "/update", b"not json", "application/json")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
    status, body = _post(
        server,
        "/update",
        json.dumps({"add": [["only", "two"]]}).encode(),
        "application/json",
    )
    assert status == 400


def test_error_code_table_is_consistent():
    for code, (status, cls) in ERROR_CODES.items():
        assert cls.code == code
        assert cls.http_status == status


# ---------------------------------------------------------------------------
# Formats, pagination, and POST bodies over the wire
# ---------------------------------------------------------------------------
def test_page_size_does_not_change_bytes(server):
    query = f"SELECT ?s ?p ?o WHERE {{ ?s ?p ?o }}"
    _, _, one = _get(server, _sparql({"query": query, "page_size": "1"}))
    _, _, big = _get(server, _sparql({"query": query, "page_size": "1000"}))
    assert one == big
    assert len(_json_rows(one)) == 30


def test_binary_format_roundtrips(server):
    query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"
    _, content_type, body = _get(
        server, _sparql({"query": query, "format": "binary", "page_size": "2"})
    )
    assert content_type == "application/x-sparql-binary-rows"
    columns, rows = read_binary(body)
    assert columns == ("s", "o")
    service = server.service
    assert rows == service.engine.decode(service.execute(query))


def test_numeric_template_parameter_matches_by_value():
    # A FILTER template with a numeric $min: the wire value "30" must
    # behave like the in-process number 30, not like the string "30".
    triples = [
        (f"<{EX}a>", f"<{EX}age>", '"20"'),
        (f"<{EX}b>", f"<{EX}age>", '"40"'),
    ]
    service = QueryService(EmptyHeadedEngine(vertically_partition(triples)))
    template = (
        f"SELECT ?s WHERE {{ ?s <{EX}age> ?v . FILTER(?v > $min) }}"
    )
    expected = service.engine.decode(
        service.execute(template, parameters={"min": 30})
    )
    assert expected == [(f"<{EX}b>",)]
    with SparqlHttpServer(service, port=0) as srv:
        _, _, body = _get(
            srv, _sparql({"query": template, "$min": "30"})
        )
        assert _json_rows(body) == expected


def test_explain_rejects_unknown_and_duplicate_parameters(server):
    query = f"SELECT ?o WHERE {{ $who <{EX}p0> ?o }}"
    status, _, body = _get(
        server,
        "/explain?"
        + urllib.parse.urlencode({"query": query, "fromat": "json"}),
    )
    assert status == 400
    assert json.loads(body)["error"]["code"] == "parse_error"
    status, _, body = _get(
        server,
        "/explain?"
        + urllib.parse.urlencode(
            [("query", query), ("$who", "<a>"), ("$who", "<b>")]
        ),
    )
    assert status == 400


def test_post_form_and_raw_query_bodies(server):
    query = f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}"
    body = urllib.parse.urlencode(
        {"query": query, "$who": f"<{EX}s2>"}
    ).encode()
    status, response = _post(
        server, "/sparql", body, "application/x-www-form-urlencoded"
    )
    assert status == 200
    expected = _json_rows(response)

    plain = f"SELECT ?o WHERE {{ <{EX}s2> <{EX}p2> ?o }}"
    status, response = _post(
        server, "/sparql", plain.encode(), "application/sparql-query"
    )
    assert status == 200
    assert _json_rows(response) == expected


def test_update_visible_to_following_queries(server):
    query = f"SELECT ?o WHERE {{ <{EX}ghost> <{EX}p0> ?o }}"
    _, _, before = _get(server, _sparql({"query": query}))
    assert _json_rows(before) == []
    status, body = _post(
        server,
        "/update",
        json.dumps(
            {"add": [[f"<{EX}ghost>", f"<{EX}p0>", f"<{EX}o1>"]]}
        ).encode(),
        "application/json",
    )
    assert status == 200 and json.loads(body)["added"] == 1
    _, _, after = _get(server, _sparql({"query": query}))
    assert _json_rows(after) == [(f"<{EX}o1>",)]


def test_stats_and_explain_endpoints(server):
    status, _, body = _get(server, "/stats")
    payload = json.loads(body)
    assert status == 200 and payload["triples"] == 30
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    status, content_type, body = _get(
        server, "/explain?" + urllib.parse.urlencode({"query": query})
    )
    assert status == 200
    assert content_type.startswith("text/plain")
    assert b"plan" in body


def test_stats_reports_keepalive_and_pool_metrics(server):
    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port)
    try:
        # Three requests down one keep-alive connection: the second and
        # third are reuses.
        for _ in range(2):
            connection.request("GET", _sparql({"query": query}))
            connection.getresponse().read()
        connection.request("GET", "/stats")
        payload = json.loads(connection.getresponse().read())
    finally:
        connection.close()

    assert payload["triples"] == 30  # session stats still present
    http_stats = payload["http"]
    assert http_stats["connections"]["opened"] >= 1
    assert http_stats["requests"]["served"] >= 3
    assert http_stats["requests"]["keepalive_reuses"] >= 2
    assert http_stats["pool"]["max_workers"] == 4
    assert http_stats["pool"]["max_pending"] == 64
    assert http_stats["pool"]["in_flight"] == 0
    assert http_stats["pool"]["in_flight_peak"] >= 1

    # A fresh connection is a new open, not a reuse.
    before = http_stats["connections"]["opened"]
    _, _, body = _get(server, "/stats")
    after = json.loads(body)["http"]["connections"]
    assert after["opened"] == before + 1
    # Closes are counted when the handler thread notices EOF, which may
    # lag the client's close() — poll rather than assert a snapshot.
    import time

    deadline = time.time() + 2.0
    while (
        server.http_stats()["connections"]["closed"] < before
        and time.time() < deadline
    ):
        time.sleep(0.02)
    assert server.http_stats()["connections"]["closed"] >= before


def test_capacity_error_when_admission_bound_hit():
    service = QueryService(EmptyHeadedEngine(vertically_partition(_triples())))
    with SparqlHttpServer(service, port=0, max_pending=1) as srv:
        # Hold the only admission slot, then issue a request.
        assert srv._admitted.acquire(blocking=False)
        try:
            status, code = (
                lambda r: (r[0], json.loads(r[2])["error"]["code"])
            )(_get(srv, _sparql({"query": f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"})))
            assert (status, code) == (503, "capacity")
        finally:
            srv._admitted.release()


def test_timeout_parameter_maps_to_503(server, monkeypatch):
    import time

    query = f"SELECT ?s WHERE {{ ?s <{EX}p0> ?o }}"
    statement = server.service.prepare(query)
    original = statement.execute

    def slow(**values):
        time.sleep(0.3)
        return original(**values)

    monkeypatch.setattr(statement, "execute", slow)
    status, code = (
        lambda r: (r[0], json.loads(r[2])["error"]["code"])
    )(_get(server, _sparql({"query": query, "timeout": "0.05"})))
    assert (status, code) == (503, "timeout")
    # The abandoned execution finishes in the background; its cursor
    # must be released, not leak a session slot forever.
    deadline = time.time() + 2.0
    while server.session.open_cursors() and time.time() < deadline:
        time.sleep(0.02)
    assert server.session.open_cursors() == 0
