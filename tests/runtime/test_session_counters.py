"""Session stats count the session's own work, and nothing else.

A service runs one :class:`ExplanationSession` per (model, uarch) key in one
process.  Each session's Γ counters (perturbations, fallbacks, encoded and
materialised rows) must describe the requests *that session* served: every
driver folds the counts it measured on its own thread into its session, so
another session's work — before, after or alongside — never shows up.
"""

import pytest

from repro.models.analytical import AnalyticalCostModel
from repro.runtime.session import ExplanationSession
from repro.service import ExplanationService

GAMMA_FIELDS = ("perturbations", "perturb_fallbacks", "encoded_rows", "materialized_rows")


def _gamma(stats):
    return {field: getattr(stats, field) for field in GAMMA_FIELDS}


def test_idle_session_counts_no_other_sessions_work(fast_config, tiny_blocks):
    with ExplanationSession(AnalyticalCostModel("hsw"), fast_config) as idle:
        with ExplanationSession(AnalyticalCostModel("skl"), fast_config) as busy:
            busy.explain(tiny_blocks[0], rng=0)
            busy_stats = busy.stats()
        idle_stats = idle.stats()
    assert busy_stats.perturbations > 0
    assert busy_stats.encoded_rows + busy_stats.materialized_rows > 0
    assert idle_stats.perturbations == 0
    assert idle_stats.encoded_rows == 0
    assert idle_stats.materialized_rows == 0


@pytest.mark.parametrize("continuous_batching", [False, True])
def test_service_keys_match_direct_sessions(
    fast_config, tiny_blocks, continuous_batching
):
    requests = [("hsw", tiny_blocks[0], 1), ("skl", tiny_blocks[1], 2)]
    with ExplanationService(
        model="crude",
        config=fast_config,
        continuous_batching=continuous_batching,
        # A result-cache hit draws nothing; both sides must compute.
        result_cache=False,
    ) as service:
        for uarch, block, seed in requests:
            service.explain(block, seed=seed, uarch=uarch)
        served = service.stats().session_stats
    for uarch, block, seed in requests:
        with ExplanationSession(AnalyticalCostModel(uarch), fast_config) as direct:
            direct.explain(block, rng=seed)
            expected = _gamma(direct.stats())
        assert expected["perturbations"] > 0
        assert _gamma(served[("crude", uarch)]) == expected, uarch


def test_port_pressure_fused_and_unfused_count_the_same_materialisations(
    fast_config, tiny_blocks
):
    """Port pressure has no row kernel, so encoded rows are materialised in
    the model call — inside the fused tick when batching is on.  Both
    services serve the same request in one process; each counts its own."""
    services = {
        fused: ExplanationService(
            model="port-pressure",
            config=fast_config,
            continuous_batching=fused,
            result_cache=False,
        )
        for fused in (False, True)
    }
    try:
        for service in services.values():
            service.explain(tiny_blocks[0], seed=5)
        rows = {
            fused: service.stats().session_stats[("port-pressure", "hsw")]
            .materialized_rows
            for fused, service in services.items()
        }
    finally:
        for service in services.values():
            service.close()
    assert rows[False] == rows[True] > 0
