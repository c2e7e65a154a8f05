"""Cluster tier over HTTP: endpoint parity with the single-process tier.

The server under test is a real :class:`SparqlHttpServer` on an
ephemeral loopback port fronting a two-worker
:class:`ClusterQueryService`, and every body is compared against a
second :class:`SparqlHttpServer` answering the identical request over
an in-process :class:`QueryService` on an identical store.
"""

import http.client
import json
import urllib.parse

import pytest

from repro.engines.emptyheaded import EmptyHeadedEngine
from repro.service import QueryService
from repro.service.cluster import ClusterQueryService
from repro.service.cluster.shm import shm_supported
from repro.service.http import SparqlHttpServer
from repro.storage.vertical import vertically_partition

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="shared memory unavailable in this sandbox"
)

EX = "http://ex/"
PREFIX = "repro-testchttp"


def _triples(n=30):
    return [
        (
            f"<{EX}s{i}>",
            f"<{EX}p{i % 3}>",
            f"<{EX}o{i % 5}>" if i % 4 else f'"lit{i}"@en',
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def cluster_server():
    cluster = ClusterQueryService(
        vertically_partition(_triples()), workers=2, prefix=PREFIX
    )
    with cluster:
        with SparqlHttpServer(cluster, port=0) as server:
            yield server


@pytest.fixture(scope="module")
def reference_server():
    service = QueryService(
        EmptyHeadedEngine(vertically_partition(_triples()))
    )
    with SparqlHttpServer(service, port=0) as server:
        yield server


def _request(url, method, path, body=None, headers=None):
    parsed = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read(),
        )
    finally:
        connection.close()


def _sparql(params):
    return "/sparql?" + urllib.parse.urlencode(params)


QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"


class TestParity:
    """Byte-for-byte agreement with the single-process front-end."""

    @pytest.mark.parametrize(
        "params",
        [
            pytest.param({"format": "json"}, id="json"),
            pytest.param({"format": "binary"}, id="binary"),
            pytest.param({"format": "tsv"}, id="tsv"),
            pytest.param({"format": "csv"}, id="csv"),
            # Streamed pages: the cursor feeds one chunk per page.
            pytest.param(
                {"stream": "true", "page_size": 2}, id="json-stream"
            ),
            pytest.param(
                {"format": "binary", "stream": "true", "page_size": 2},
                id="binary-stream",
            ),
        ],
    )
    def test_get_sparql_bodies_match(
        self, cluster_server, reference_server, params
    ):
        path = _sparql({"query": QUERY, **params})
        c_status, c_type, c_body = _request(cluster_server.url, "GET", path)
        r_status, r_type, r_body = _request(
            reference_server.url, "GET", path
        )
        assert (c_status, c_type, c_body) == (r_status, r_type, r_body)
        assert c_status == 200

    def test_get_sparql_paged_bodies_match(
        self, cluster_server, reference_server
    ):
        path = _sparql({"query": QUERY, "page_size": 3})
        assert _request(cluster_server.url, "GET", path) == _request(
            reference_server.url, "GET", path
        )

    def test_post_form_encoded_matches_get(self, cluster_server):
        body = urllib.parse.urlencode({"query": QUERY})
        status, _, post_body = _request(
            cluster_server.url,
            "POST",
            "/sparql",
            body=body,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert status == 200
        _, _, get_body = _request(
            cluster_server.url, "GET", _sparql({"query": QUERY})
        )
        assert post_body == get_body

    def test_post_sparql_query_content_type(self, cluster_server):
        status, _, body = _request(
            cluster_server.url,
            "POST",
            "/sparql",
            body=QUERY,
            headers={"Content-Type": "application/sparql-query"},
        )
        assert status == 200
        assert json.loads(body)["results"]["bindings"]

    def test_template_parameters_match(
        self, cluster_server, reference_server
    ):
        path = _sparql(
            {
                "query": f"SELECT ?o WHERE {{ $who <{EX}p2> ?o }}",
                "$who": f"<{EX}s2>",
            }
        )
        assert _request(cluster_server.url, "GET", path) == _request(
            reference_server.url, "GET", path
        )

    def test_explain_matches(self, cluster_server, reference_server):
        path = "/explain?" + urllib.parse.urlencode({"query": QUERY})
        assert _request(cluster_server.url, "GET", path) == _request(
            reference_server.url, "GET", path
        )


class TestErrors:
    def test_parse_error_is_400_with_code(self, cluster_server):
        status, _, body = _request(
            cluster_server.url, "GET", _sparql({"query": "SELEC nope"})
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse_error"

    def test_missing_query_is_400(self, cluster_server):
        status, _, body = _request(cluster_server.url, "GET", "/sparql")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse_error"

    def test_unknown_path_is_404(self, cluster_server):
        status, _, body = _request(cluster_server.url, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_error_body_matches_single_process(
        self, cluster_server, reference_server
    ):
        path = _sparql({"query": "SELEC nope"})
        c_status, _, c_body = _request(cluster_server.url, "GET", path)
        r_status, _, r_body = _request(reference_server.url, "GET", path)
        assert (c_status, c_body) == (r_status, r_body)

    def test_bad_update_payload_is_400(self, cluster_server):
        status, _, body = _request(
            cluster_server.url,
            "POST",
            "/update",
            body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse_error"


class TestStatsAndUpdate:
    def test_stats_reports_cluster_worker_count(self, cluster_server):
        status, _, body = _request(cluster_server.url, "GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["http"]["pool"]["worker_count"] == 2
        assert stats["cluster"]["worker_count"] == 2
        assert len(stats["cluster"]["workers"]) == 2

    def test_single_process_stats_reports_one_worker(self, reference_server):
        _, _, body = _request(reference_server.url, "GET", "/stats")
        assert json.loads(body)["http"]["pool"]["worker_count"] == 1

    def test_update_round_trip_visible_everywhere(self, cluster_server):
        probe = _sparql(
            {"query": f"SELECT ?o WHERE {{ <{EX}ghost> <{EX}p0> ?o }}"}
        )

        def rows():
            _, _, body = _request(cluster_server.url, "GET", probe)
            return json.loads(body)["results"]["bindings"]

        batch = [[f"<{EX}ghost>", f"<{EX}p0>", f"<{EX}o1>"]]
        status, _, body = _request(
            cluster_server.url,
            "POST",
            "/update",
            body=json.dumps({"add": batch}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert json.loads(body)["added"] == 1
        # More samples than workers: the batch is visible on all of them.
        for _ in range(6):
            assert len(rows()) == 1
        _request(
            cluster_server.url,
            "POST",
            "/update",
            body=json.dumps({"remove": batch}).encode(),
            headers={"Content-Type": "application/json"},
        )
        for _ in range(6):
            assert rows() == []


class TestKeepAlive:
    def test_many_requests_one_connection(self, cluster_server):
        parsed = urllib.parse.urlsplit(cluster_server.url)
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port
        )
        try:
            for _ in range(5):
                connection.request("GET", _sparql({"query": QUERY}))
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert json.loads(body)["results"]["bindings"]
        finally:
            connection.close()
