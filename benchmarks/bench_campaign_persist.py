"""Campaign persistence: writing module results and reading them back.

The artifact flow characterizes each module once, persists its
measurements, and reads them back for Tables 3/4 and Fig. 6; a resumed
campaign reads every persisted module again before reusing it.  This
bench runs Algorithm 1 over all 30 catalog modules at ``--rows 8`` into
a temporary directory and then, in the same process, records:

* ``encode_margin`` — the pure-Python ``json.dumps(payload, indent=1)``
  of the 30 results over :meth:`ModuleCharacterization.to_json`, which
  must write the same bytes (asserted) through the C encoder.  The two
  are timed interleaved, best of ``_ROUNDS`` each.  Floor 1.8x.
* ``resume_digest_builds`` — the digest payloads
  :func:`repro.validation.model_digest` builds while the finished
  campaign is resumed (``run()``) and reloaded (``load()``), counted by
  a spy on its memo's miss path.  The first run builds each module's
  once; a resume in the same process must build none (ceiling 0).

``resume_ms`` and ``load_ms`` (best of ``_ROUNDS``) are reported beside
them.  Results land in ``bench_results/campaign_persist.txt`` and
``bench_results/BENCH_campaign_persist.json``, whose ``floors`` and
``ceilings`` ``scripts/check_bench_floors.py`` re-checks.
"""

import json
import time
from tempfile import TemporaryDirectory
from unittest import mock

from bench_util import RESULTS_DIR, run_once, save_result

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.validation import physics

_ROWS = 8
_ROUNDS = 15
ENCODE_MARGIN_FLOOR = 1.8
RESUME_DIGEST_BUILDS_CEILING = 0


def _payload(result) -> dict:
    """One module result as the plain dicts ``json.dumps`` takes."""
    return {"module_id": result.module_id, "seed": result.seed,
            "model_digest": result.model_digest,
            "measurements": [m._asdict() for m in result.measurements]}


def _best_interleaved(fns: dict, rounds: int = _ROUNDS) -> dict[str, float]:
    """Best wall time in seconds of each callable, run in turn."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(rounds):
        for name, fn in fns.items():
            started = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def _measure() -> dict:
    builds = []
    miss = physics._compute_digest

    def counted(calibration, seed):
        builds.append((calibration[0].module_id, seed))
        return miss(calibration, seed)

    with TemporaryDirectory() as tmp, \
            mock.patch.object(physics, "_compute_digest", counted):
        campaign = CharacterizationCampaign(
            tmp, CampaignConfig(per_region=_ROWS))
        results = list(campaign.run(jobs=1).values())
        first_run_builds = len(builds)
        builds.clear()
        campaign.run(jobs=1)
        campaign.load()
        resume_builds = len(builds)
        payloads = [_payload(result) for result in results]
        for result, payload in zip(results, payloads):
            assert result.to_json() == json.dumps(payload, indent=1) \
                == campaign.result_path(result.module_id).read_text(), \
                result.module_id
        best = _best_interleaved({
            "plain": lambda: [json.dumps(payload, indent=1)
                              for payload in payloads],
            "to_json": lambda: [result.to_json() for result in results],
            "resume": lambda: campaign.run(jobs=1),
            "load": campaign.load,
        })
    return {
        "modules": len(results),
        "measurements": sum(len(r.measurements) for r in results),
        "plain_ms": best["plain"] * 1e3,
        "to_json_ms": best["to_json"] * 1e3,
        "encode_margin": best["plain"] / best["to_json"],
        "resume_ms": best["resume"] * 1e3,
        "load_ms": best["load"] * 1e3,
        "first_run_digest_builds": first_run_builds,
        "resume_digest_builds": resume_builds,
        "floors": {"encode_margin": ENCODE_MARGIN_FLOOR},
        "ceilings": {"resume_digest_builds": RESUME_DIGEST_BUILDS_CEILING},
    }


def test_campaign_persist(benchmark):
    payload = run_once(benchmark, _measure)
    save_result("campaign_persist", (
        f"{payload['modules']} modules at --rows {_ROWS}: "
        f"{payload['measurements']} measurements\n"
        f"encode: json.dumps(indent=1) {payload['plain_ms']:.1f} ms, "
        f"to_json {payload['to_json_ms']:.1f} ms, margin "
        f"{payload['encode_margin']:.2f}x (floor {ENCODE_MARGIN_FLOOR}x)\n"
        f"resume run() {payload['resume_ms']:.1f} ms, load() "
        f"{payload['load_ms']:.1f} ms (best of {_ROUNDS})\n"
        f"digest payloads built: first run "
        f"{payload['first_run_digest_builds']}, resume + load "
        f"{payload['resume_digest_builds']} "
        f"(ceiling {RESUME_DIGEST_BUILDS_CEILING})"))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign_persist.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
    assert payload["encode_margin"] >= ENCODE_MARGIN_FLOOR, (
        f"to_json only {payload['encode_margin']:.2f}x faster than "
        f"json.dumps(indent=1) (floor {ENCODE_MARGIN_FLOOR}x)")
    assert payload["resume_digest_builds"] <= RESUME_DIGEST_BUILDS_CEILING, (
        f"a resumed campaign built {payload['resume_digest_builds']} "
        f"digest payloads (ceiling {RESUME_DIGEST_BUILDS_CEILING})")
