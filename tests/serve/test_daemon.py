"""End-to-end daemon tests: real sockets, concurrent clients.

The contract under test is the acceptance bar of the serving
subsystem: batched responses are *bit-identical* to direct
``Advisor.advise`` answers, SIGTERM drains instead of dropping,
admission rejects carry the structured schema, and ``/metricsz``
exposes the SLO quantities.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.protocol import advice_to_wire

from .conftest import ARCH_NAME


def open_daemon(advisor, corpus, **overrides):
    config = ServeConfig(port=0, rate=None, **overrides)
    return start_in_thread(advisor, corpus, config)


def direct_answers(oracle, corpus, arch):
    """id -> wire-format advice straight from the library path."""
    return {e.name: advice_to_wire(
        oracle.advise(e.matrix, arch, matrix_name=e.name))
        for e in corpus}


def test_concurrent_clients_get_bit_identical_answers(
        advisor, oracle, corpus, arch):
    expected = direct_answers(oracle, corpus, arch)
    with open_daemon(advisor, corpus, max_batch=8,
                     linger_ms=10.0) as handle:

        def one_client(i: int):
            with ServeClient("127.0.0.1", handle.port,
                             timeout=10.0) as client:
                entry = corpus[i % len(corpus)]
                status, body = client.advise(
                    entry.name, arch=ARCH_NAME, request_id=i,
                    client=f"t{i % 3}")
                return entry.name, status, body

        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(pool.map(one_client, range(24)))

    for name, status, body in outcomes:
        assert status == 200
        assert body["status"] == "ok"
        # floats round-trip exactly through JSON: equality here is
        # bit-identity with the direct library call
        assert body["advice"] == expected[name]
        assert body["batch_size"] >= 1
        assert body["queue_ms"] >= 0.0


def test_response_echoes_id_and_honors_top(advisor, corpus):
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            status, body = client.advise(
                corpus[0].name, arch=ARCH_NAME,
                request_id="req-00042", top=1)
    assert status == 200
    assert body["id"] == "req-00042"
    assert len(body["advice"]) == 1


def test_error_responses(advisor, corpus):
    with open_daemon(advisor, corpus) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            status, body = client.advise("no-such-matrix")
            assert status == 404
            assert body["status"] == "error"
            assert body["reason"] == "unknown_matrix"

            status, body = client.advise(corpus[0].name,
                                         arch="No Such Arch")
            assert status == 400 and body["reason"] == "unknown_arch"

            status, body = client.request(
                "POST", "/advise", {"matrix": corpus[0].name,
                                    "bogus_key": 1})
            assert status == 400 and body["reason"] == "bad_request"

            status, body = client.request("GET", "/nope")
            assert status == 404 and body["reason"] == "unknown_route"

            status, body = client.request("GET", "/advise")
            assert status == 405


def test_healthz_and_metricsz_schema(advisor, corpus):
    with open_daemon(advisor, corpus, max_batch=4,
                     linger_ms=2.0) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            for i in range(6):
                status, _ = client.advise(corpus[i % len(corpus)].name,
                                          arch=ARCH_NAME)
                assert status == 200

            health = client.healthz()
            assert health["status"] == "ok"
            assert health["corpus"] == len(corpus)
            assert health["uptime_seconds"] >= 0

            metrics = client.metricsz()

    slo = metrics["slo"]
    assert slo["requests"] >= 6 and slo["responses"] >= 6
    lat = slo["latency_ms"]
    for key in ("count", "mean", "p50", "p95", "p99", "max"):
        assert key in lat
    assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    batch = slo["batch"]
    assert batch["batches"] >= 1
    assert batch["mean_size"] >= 1.0
    assert batch["histogram"]["bounds"] == [1, 2, 4, 8, 16, 32, 64,
                                            128, 256]
    assert sum(batch["histogram"]["counts"]) == batch["batches"]
    shed = slo["shed"]
    assert set(shed) == {"rate_limited", "queue_full", "draining"}
    assert "queue_wait_ms" in slo
    # raw registry entries ride along for repro.obs tooling
    assert any(name.startswith("serve.") for name in metrics["metrics"])
    assert "advisor" in metrics
    # the whole payload is JSON-serialisable (it travelled over HTTP)
    json.dumps(metrics)


def test_admission_reject_schema_and_isolation(advisor, corpus):
    """An exhausted client gets the structured 429; others sail on."""
    with start_in_thread(
            advisor, corpus,
            ServeConfig(port=0, rate=0.001, burst=2.0)) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            statuses = []
            for i in range(4):
                status, body = client.advise(
                    corpus[0].name, arch=ARCH_NAME, client="greedy",
                    request_id=i)
                statuses.append((status, body))
            # bucket burst is 2: the tail of the run is rejected
            oks = [s for s, _ in statuses if s == 200]
            rejects = [(s, b) for s, b in statuses if s != 200]
            assert len(oks) == 2 and len(rejects) == 2
            for status, body in rejects:
                assert status == 429
                assert body["status"] == "rejected"
                assert body["reason"] == "rate_limited"
                assert body["code"] == 429
                assert body["retry_after_ms"] > 0
            # a different client identity is not throttled
            status, body = client.advise(corpus[1].name,
                                         arch=ARCH_NAME,
                                         client="polite")
            assert status == 200

            metrics = client.metricsz()
            assert metrics["slo"]["shed"]["rate_limited"] == 2


def test_sigterm_drains_inflight_requests(advisor, oracle, corpus,
                                          arch):
    """SIGTERM mid-burst: queued requests still answered bit-identically,
    the daemon exits, and late requests cannot connect."""
    expected = direct_answers(oracle, corpus, arch)
    outcomes = []
    errors = []

    async def scenario() -> None:
        from repro.serve.daemon import AdvisorDaemon

        daemon = AdvisorDaemon(
            advisor, corpus,
            ServeConfig(port=0, rate=None, max_batch=8,
                        linger_ms=30.0, drain_timeout=5.0))
        await daemon.start()
        daemon.install_signal_handlers()
        port = daemon.port

        def client_burst() -> None:
            try:
                with ServeClient("127.0.0.1", port,
                                 timeout=10.0) as client:
                    for i in range(6):
                        entry = corpus[i % len(corpus)]
                        outcomes.append(
                            (entry.name,
                             *client.advise(entry.name,
                                            arch=ARCH_NAME)))
            except Exception as e:  # noqa: BLE001 - recorded for assert
                errors.append(e)

        burst = threading.Thread(target=client_burst)
        burst.start()
        # SIGTERM lands while the burst is in flight (linger 30ms keeps
        # requests queued); the handler runs on this main thread
        asyncio.get_running_loop().call_later(
            0.05, signal.raise_signal, signal.SIGTERM)
        await daemon.serve_forever()
        burst.join(10.0)

    asyncio.run(scenario())
    assert not errors, f"drain dropped a client: {errors[:1]}"
    assert len(outcomes) == 6
    for name, status, body in outcomes:
        # every request got a real answer (drained) or a structured
        # draining reject — never a dropped connection
        if status == 200:
            assert body["advice"] == expected[name]
        else:
            assert status == 503 and body["reason"] == "draining"
    # at least the first request predates the SIGTERM and must be served
    assert outcomes[0][1] == 200


def test_port_zero_picks_a_free_port(advisor, corpus):
    with open_daemon(advisor, corpus) as a, \
            open_daemon(advisor, corpus) as b:
        assert a.port != b.port
        with ServeClient("127.0.0.1", a.port) as client:
            assert client.healthz()["status"] == "ok"


def test_startup_rejects_unknown_default_arch(advisor, corpus):
    from repro.serve.daemon import AdvisorDaemon

    with pytest.raises(Exception, match="[Aa]rch"):
        AdvisorDaemon(advisor, corpus,
                      ServeConfig(default_arch="Quantum Z"))
