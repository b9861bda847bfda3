import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import ScriptedLlmClient
from tridrive import llm as llm_module
from tridrive.errors import ConfigError, LlmClientError
from tridrive.features import (
    CohortSummary,
    FeatureMetadata,
    build_feature_prompt,
    build_reward_prompt,
    parse_reward_response,
    parse_selection_response,
)
from tridrive.llm import (
    ENDPOINT_ENV,
    KEY_ENV,
    HttpLlmClient,
    LlmClientConfig,
    StubLlmClient,
)

METADATA = [
    FeatureMetadata("hr", 412, 0.512, 0.101, 0.08, 0.43, {"vaso": -0.12}, 0.44, 0.51, 0.58, 0.14),
    FeatureMetadata("lactate", 398, 0.20, 0.15, 0.15, -0.61, {"vaso": 0.33}, 0.09, 0.17, 0.31, 0.22),
    FeatureMetadata("map", 405, 0.49, 0.08, 0.05, 0.22, {"vaso": 0.95}, 0.45, 0.50, 0.55, 0.10),
    FeatureMetadata("spo2", 400, 0.85, 0.06, 0.02, 0.55, {"vaso": 0.05}, 0.80, 0.86, 0.91, 0.11),
]
SUMMARY = CohortSummary(n_patients=120, n_records=3600, mortality_rate=0.275)


class TestScriptedClient:
    def test_cycles(self):
        client = ScriptedLlmClient(["a", "b"])
        assert [client.complete("") for _ in range(5)] == ["a", "b", "a", "b", "a"]

    def test_exhaustion_raises_when_not_cycling(self):
        client = ScriptedLlmClient(["a"], cycle=False)
        client.complete("")
        with pytest.raises(LlmClientError):
            client.complete("")

    def test_needs_responses(self):
        with pytest.raises(ConfigError):
            ScriptedLlmClient([])


class TestStubSelection:
    def test_returns_parseable_top_k(self):
        prompt = build_feature_prompt(METADATA, "sepsis treatment", SUMMARY, k=2)
        response = StubLlmClient().complete(prompt)
        rnd = parse_selection_response(response, {m.feature_id for m in METADATA})
        assert len(rnd.selected) == 2

    def test_prefers_outcome_correlated_features(self):
        prompt = build_feature_prompt(METADATA, "sepsis treatment", SUMMARY, k=2)
        rnd = parse_selection_response(
            StubLlmClient().complete(prompt), {m.feature_id for m in METADATA}
        )
        # lactate (|r|=0.61) and spo2 (0.55) beat hr (0.43) and the
        # action-proxy map (outcome 0.22, action 0.95)
        assert set(rnd.selected) == {"lactate", "spo2"}

    def test_deterministic_across_instances(self):
        prompt = build_feature_prompt(METADATA, "care", SUMMARY, k=3)
        assert StubLlmClient().complete(prompt) == StubLlmClient().complete(prompt)

    def test_unrecognized_prompt_rejected(self):
        with pytest.raises(LlmClientError):
            StubLlmClient().complete("what is the weather")


class TestStubGeneration:
    def _prompt(self):
        return build_reward_prompt(
            METADATA, "sepsis treatment", SUMMARY,
            {"vaso": 4.0, "fluid": 4.0}, {"vaso": True, "fluid": True},
        )

    def test_emits_valid_spec(self):
        spec = parse_reward_response(StubLlmClient().complete(self._prompt()))
        assert set(spec.survival) == {m.feature_id for m in METADATA}
        assert set(spec.action_max) == {"vaso", "fluid"}
        assert spec.gamma == 0.99

    def test_form_heuristics_follow_medians(self):
        spec = parse_reward_response(StubLlmClient().complete(self._prompt()))
        assert spec.survival["lactate"].form.value == "decay_low"  # median 0.17
        assert spec.survival["spo2"].form.value == "decay_high"  # median 0.86
        assert spec.survival["hr"].form.value == "bell"  # median 0.51

    def test_candidates_vary_with_call_counter(self):
        client = StubLlmClient()
        prompt = self._prompt()
        specs = [parse_reward_response(client.complete(prompt)) for _ in range(4)]
        lams = [s.lam for s in specs]
        assert len(set(lams)) > 1
        assert 0.0 in lams  # includes a cost-blind variant

    def test_fresh_instance_restarts_the_sequence(self):
        prompt = self._prompt()
        a = [StubLlmClient().complete(prompt)]
        client = StubLlmClient()
        b = [client.complete(prompt)]
        assert a == b


class _Handler(BaseHTTPRequestHandler):
    calls = []
    failures_left = 0
    status_on_fail = 500
    retry_after = None  # Retry-After header value sent with each failure

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        _Handler.calls.append(
            {"payload": json.loads(body), "auth": self.headers.get("Authorization")}
        )
        if _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(_Handler.status_on_fail)
            if _Handler.retry_after is not None:
                self.send_header("Retry-After", _Handler.retry_after)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/plain")
        self.end_headers()
        self.wfile.write(b"completion text")

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.calls = []
    _Handler.failures_left = 0
    _Handler.status_on_fail = 500
    _Handler.retry_after = None
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()


class TestHttpClient:
    def test_round_trip_and_wire_format(self, http_endpoint, monkeypatch):
        monkeypatch.setenv(KEY_ENV, "secret-token")
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, model="m1", temperature=0.3, backoff=0.01)
        )
        assert client.complete("hello") == "completion text"
        call = _Handler.calls[-1]
        assert call["payload"] == {"model": "m1", "temperature": 0.3, "prompt": "hello"}
        assert call["auth"] == "Bearer secret-token"

    def test_retries_transient_failures(self, http_endpoint):
        _Handler.failures_left = 2
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=2, backoff=0.01)
        )
        assert client.complete("x") == "completion text"
        assert len(_Handler.calls) == 3

    def test_gives_up_after_retry_budget(self, http_endpoint):
        _Handler.failures_left = 5
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=1, backoff=0.01)
        )
        with pytest.raises(LlmClientError, match="after 2 attempts"):
            client.complete("x")

    def test_client_error_is_not_retried(self, http_endpoint):
        _Handler.failures_left = 1
        _Handler.status_on_fail = 403
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=3, backoff=0.01)
        )
        with pytest.raises(LlmClientError, match="403"):
            client.complete("x")
        assert len(_Handler.calls) == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_are_retried(self, http_endpoint, status):
        _Handler.failures_left = 1
        _Handler.status_on_fail = status
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=2, backoff=0.01)
        )
        assert client.complete("x") == "completion text"
        assert len(_Handler.calls) == 2

    @pytest.mark.parametrize(
        "header, waits",
        [("3", [3.0, 3.0]), ("60", [8.0, 8.0]), (None, [0.5, 1.0]), ("soon", [0.5, 1.0])],
        ids=["seconds", "capped", "absent", "not-seconds"],
    )
    def test_retry_after_sets_the_wait(self, http_endpoint, monkeypatch, header, waits):
        slept = []
        monkeypatch.setattr(llm_module.time, "sleep", slept.append)
        _Handler.failures_left = 2
        _Handler.status_on_fail = 429
        _Handler.retry_after = header
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=2, backoff=0.5)
        )
        assert client.complete("x") == "completion text"
        assert slept == waits

    def test_bad_request_is_not_retried(self, http_endpoint):
        _Handler.failures_left = 1
        _Handler.status_on_fail = 400
        _Handler.retry_after = "1"
        client = HttpLlmClient(
            LlmClientConfig(endpoint=http_endpoint, retries=3, backoff=0.01)
        )
        with pytest.raises(LlmClientError, match="400"):
            client.complete("x")
        assert len(_Handler.calls) == 1

    def test_endpoint_from_environment(self, http_endpoint, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, http_endpoint)
        client = HttpLlmClient(LlmClientConfig(backoff=0.01))
        assert client.complete("x") == "completion text"

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        with pytest.raises(ConfigError, match="endpoint"):
            HttpLlmClient(LlmClientConfig())

    def test_no_auth_header_without_key(self, http_endpoint, monkeypatch):
        monkeypatch.delenv(KEY_ENV, raising=False)
        HttpLlmClient(LlmClientConfig(endpoint=http_endpoint, backoff=0.01)).complete("x")
        assert _Handler.calls[-1]["auth"] is None
