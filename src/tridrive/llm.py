"""LLM client abstraction: a network client plus a deterministic offline stand-in.

The wire format is a JSON request {"model", "temperature", "prompt"} posted
to the configured endpoint; the response body, read as UTF-8, is the
completion text. The credential is read from an environment variable and
never logged or persisted.

One offline implementation ships: StubLlmClient derives a schema-valid
response from the prompt's own statistics block, so the whole pipeline
runs offline and byte-reproducibly.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Protocol

from .errors import ConfigError, LlmClientError

ENDPOINT_ENV = "TRIDRIVE_LLM_ENDPOINT"
KEY_ENV = "TRIDRIVE_LLM_KEY"


@dataclass(frozen=True)
class LlmClientConfig:
    endpoint: str = ""
    model: str = "default"
    temperature: float = 0.7
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 1.0

    def __post_init__(self):
        if self.retries < 0:
            raise ConfigError("retries must be nonnegative")
        if not (0.0 < self.timeout < math.inf):
            raise ConfigError("timeout must be a finite positive number")
        if not (0.0 <= self.backoff < math.inf):
            raise ConfigError("backoff must be a finite nonnegative number")


class LlmClient(Protocol):
    def complete(self, prompt: str) -> str:  # pragma: no cover - interface
        ...


class HttpLlmClient:
    """POSTs prompts to an HTTP endpoint and returns the response body."""

    def __init__(self, config: LlmClientConfig):
        self.config = config
        endpoint = config.endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ConfigError(
                f"no LLM endpoint configured (set {ENDPOINT_ENV} or the config's endpoint)"
            )
        if endpoint.partition(":")[0].lower() not in ("http", "https"):
            raise ConfigError(f"the LLM endpoint must be an http or https URL, got {endpoint!r}")
        self.endpoint = endpoint

    def complete(self, prompt: str) -> str:
        # Imported here, on the one path that sends a request: urllib.request
        # loads http.client, email and ssl, which a run with the stub client
        # never uses and would otherwise pay for at every start.
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "prompt": prompt,
        }
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"

        # Redirects are refused: urllib would send every header, the key
        # included, to whatever host a redirect names, and resend the POST as
        # a GET. The 3xx response then raises HTTPError like a 4xx.
        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None

        opener = urllib.request.build_opener(RefuseRedirects)
        last_error = None
        for attempt in range(self.config.retries + 1):
            wait = self.config.backoff * 2.0**attempt
            try:
                request = urllib.request.Request(self.endpoint, body, headers, method="POST")
                with opener.open(request, timeout=self.config.timeout) as resp:
                    return resp.read().decode("utf-8", errors="replace")
            except urllib.error.HTTPError as exc:  # a response with status >= 300
                exc.close()
                if exc.code >= 500 or exc.code in _TRANSIENT_4XX:
                    last_error = f"server returned {exc.code}"
                    wait = _retry_after(exc.headers.get("Retry-After"), wait)
                elif exc.code < 400:
                    raise LlmClientError(
                        f"endpoint redirected with {exc.code}; redirects are not followed, "
                        "so configure the URL it names"
                    ) from None
                else:
                    raise LlmClientError(f"request rejected with {exc.code}") from None
            # No connection, a timeout, a broken response, or an unusable URL.
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = str(exc)
            if attempt < self.config.retries:
                time.sleep(min(wait, _MAX_WAIT_S))
        raise LlmClientError(f"LLM endpoint failed after {self.config.retries + 1} attempts: {last_error}")


# Request timeout and rate limiting: retried like 5xx responses.
_TRANSIENT_4XX = frozenset({408, 429})
_MAX_WAIT_S = 8.0


def _retry_after(header: str | None, default: float) -> float:
    """The wait a Retry-After header gives in seconds, else default. (The
    HTTP-date form of the header is not read.)"""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return default
    return seconds if 0.0 <= seconds < math.inf else default


# ---------------------------------------------------------------------------
# Heuristic offline stub. It reads the statistics embedded in the prompt and
# answers with a plausible, always-valid document. Responses vary
# deterministically with an internal call counter so repeated candidate
# generation yields a diverse pool.
# ---------------------------------------------------------------------------

_TOP_K_RE = re.compile(r"top (\d+)")
_FEATURE_BLOCK_RE = re.compile(
    r"^Feature: (?P<fid>\S+)\n"
    r"  Count: (?P<count>\d+)\n"
    r"  Mean: (?P<mean>[-\d.]+)\n"
    r"  Std: (?P<std>[-\d.]+)\n"
    r"  Missing rate: (?P<missing>[-\d.]+)\n"
    r"  Median: (?P<median>[-\d.]+)  Q25: (?P<q25>[-\d.]+)  Q75: (?P<q75>[-\d.]+)  IQR: (?P<iqr>[-\d.]+)$",
    re.MULTILINE,
)
_CORR_LINE_RE = re.compile(r"^  - (?P<fid>\S+): r=(?P<r>[-+\d.]+|undefined)", re.MULTILINE)
_ACTION_DIM_RE = re.compile(r"^- (?P<aid>\S+): 0\.\.(?P<max>[\d.]+)", re.MULTILINE)


@dataclass
class StubLlmClient:
    """Deterministic offline designer; see module docstring."""

    generation_calls: int = field(default=0)

    def complete(self, prompt: str) -> str:
        if '"critical_state_features"' in prompt:
            return self._select_features(prompt)
        if '"confidence_tau"' in prompt:
            call = self.generation_calls
            self.generation_calls += 1
            return self._design_reward(prompt, call)
        raise LlmClientError("stub client does not recognize this prompt")

    def _select_features(self, prompt: str) -> str:
        k_match = _TOP_K_RE.search(prompt)
        k = int(k_match.group(1)) if k_match else 7
        stats = {m.group("fid"): m.groupdict() for m in _FEATURE_BLOCK_RE.finditer(prompt)}
        outcome_r, action_r = self._split_correlations(prompt)
        ranked = sorted(
            stats,
            key=lambda fid: (
                -(abs(outcome_r.get(fid, 0.0)) - 0.5 * abs(action_r.get(fid, 0.0))
                  - 0.2 * float(stats[fid]["missing"])),
                fid,
            ),
        )
        chosen = ranked[:k]
        entries = [
            {
                "feature_name": fid,
                "rationale": (
                    f"survival correlation {outcome_r.get(fid, 0.0):+.3f} "
                    f"with missing rate {float(stats[fid]['missing']):.2f}"
                ),
            }
            for fid in chosen
        ]
        return json.dumps({"critical_state_features": entries})

    def _split_correlations(self, prompt: str):
        outcome_r: dict[str, float] = {}
        action_r: dict[str, float] = {}
        section = None
        for line in prompt.splitlines():
            if line.startswith("CORRELATIONS WITH OUTCOMES"):
                section = "outcome"
            elif line.startswith("ACTION-FEATURE CORRELATIONS"):
                section = "action"
            elif section and line.startswith("  - "):
                m = _CORR_LINE_RE.match(line)
                if not m or m.group("r") == "undefined":
                    continue
                fid, r = m.group("fid"), float(m.group("r"))
                if section == "outcome":
                    outcome_r[fid] = r
                else:
                    action_r[fid] = max(abs(r), action_r.get(fid, 0.0))
        return outcome_r, action_r

    def _design_reward(self, prompt: str, call: int) -> str:
        stats = {m.group("fid"): m.groupdict() for m in _FEATURE_BLOCK_RE.finditer(prompt)}
        if not stats:
            raise LlmClientError("stub client found no feature statistics in the prompt")
        survival = {}
        confidence_tau = {}
        for fid in sorted(stats):
            median = float(stats[fid]["median"])
            iqr = float(stats[fid]["iqr"])
            if median < 0.35:
                survival[fid] = {
                    "form": "decay_low",
                    "tau": round(0.3 * (1.0 + 0.15 * (call % 3)), 6),
                    "weight": 1.0,
                }
            elif median > 0.65:
                survival[fid] = {
                    "form": "decay_high",
                    "tau": round(0.3 * (1.0 + 0.15 * (call % 3)), 6),
                    "weight": 1.0,
                }
            else:
                survival[fid] = {
                    "form": "bell",
                    "mu": round(median, 6),
                    "sigma": round(max(iqr / 2.0, 0.05) * (1.0 + 0.1 * (call % 4)), 6),
                    "weight": 1.0,
                }
            confidence_tau[fid] = round(6.0 * (1.0 + 0.25 * (call % 4)), 6)
        action_max = {
            m.group("aid"): float(m.group("max")) for m in _ACTION_DIM_RE.finditer(prompt)
        }
        spec = {
            "survival": survival,
            "confidence_tau": confidence_tau,
            "action_max": action_max,
            "decay_half_life": 48.0 * (1.0 + 0.25 * (call % 3)),
            "gamma": 0.99,
            "lambda": (0.0, 0.05, 0.1, 0.2)[call % 4],
            "action_cost_scale": 0.25,
        }
        return json.dumps(spec)
