"""Shared fixtures and helpers for the SRM reproduction test suite."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import pytest
from hypothesis import settings as hypothesis_settings

from repro import env as srm_env
from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.net.network import Network
from repro.net.packet import GroupAddress
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.topology.spec import TopologySpec

# ----------------------------------------------------------------------
# Hypothesis profiles
# ----------------------------------------------------------------------
# All property tests share these profiles instead of hand-picking
# max_examples/deadline per test. ``deadline=None`` everywhere: the
# simulations' wall time varies wildly across machines and CI workers,
# and flaky deadline failures taught us it is never a useful signal
# here. ``print_blob=True`` so a CI failure prints the
# ``@reproduce_failure`` blob needed to replay it locally.
#
# Select with SRM_HYPOTHESIS_PROFILE=ci|dev|nightly (default: ci).

_PROFILE_SCALE = {"ci": 1.0, "dev": 0.3, "nightly": 8.0}

for _name, _scale in _PROFILE_SCALE.items():
    hypothesis_settings.register_profile(
        _name, deadline=None, print_blob=True, derandomize=(_name == "ci"))

_ACTIVE_PROFILE = srm_env.hypothesis_profile()
if _ACTIVE_PROFILE not in _PROFILE_SCALE:
    raise RuntimeError(
        f"SRM_HYPOTHESIS_PROFILE={_ACTIVE_PROFILE!r}: expected one of "
        f"{sorted(_PROFILE_SCALE)}")
hypothesis_settings.load_profile(_ACTIVE_PROFILE)


def examples(base: int) -> int:
    """Scale a test's baseline example count by the active profile.

    ``base`` is the count the test wants under the ``ci`` profile; the
    ``dev`` profile shrinks it for fast local iteration and ``nightly``
    multiplies it for the deep cron run.
    """
    return max(1, round(base * _PROFILE_SCALE[_ACTIVE_PROFILE]))


def build_srm_session(spec: TopologySpec, members: Iterable[int],
                      config: Optional[SrmConfig] = None, seed: int = 0,
                      delivery: str = "direct", scheduler=None,
                      ) -> Tuple[Network, Dict[int, SrmAgent], GroupAddress]:
    """Instantiate a network and attach SRM agents on the given members."""
    network = spec.build(scheduler=scheduler, delivery=delivery)
    network.trace.enabled = True
    group = network.groups.allocate("session")
    master = RandomSource(seed)
    agents: Dict[int, SrmAgent] = {}
    for member in members:
        agent = SrmAgent(config if config is None else config.copy(),
                         master.fork(f"member-{member}"))
        network.attach(member, agent)
        agent.join_group(group)
        agents[member] = agent
    return network, agents, group


def at(network: Network, time: float, callback, *args) -> None:
    """Schedule a callback at an absolute simulated time."""
    network.scheduler.schedule_at(time, callback, *args)


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(12345)


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default result cache at a per-test tmp dir.

    CLI commands cache results under ``results/.cache`` by default;
    tests must never read stale cached results (or litter the repo), so
    every test sees a fresh empty cache location.
    """
    monkeypatch.setenv("SRM_CACHE_DIR", str(tmp_path / "srm-cache"))


@pytest.fixture(autouse=True)
def _protocol_oracles(request, monkeypatch):
    """With SRM_CHECK=1, run every test under the protocol oracles.

    Every :class:`Network` a test builds gets a passive
    :class:`repro.oracle.SessionOracleSuite` subscribed to its trace;
    at teardown each suite's findings are verified and any invariant
    break fails the test with a violation report. Passive mode leaves
    the trace's enabled flag alone (a network that never turns tracing
    on is simply not observed) so the fixture cannot perturb tests that
    assert on trace contents beyond the extra ``deliver`` records.
    """
    if not check_mode_enabled():
        yield
        return
    from repro.oracle import SessionOracleSuite

    suites = []
    original_init = Network.__init__

    def watched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        suites.append(SessionOracleSuite.attach(self, enable_trace=False))

    monkeypatch.setattr(Network, "__init__", watched_init)
    yield
    for suite in suites:
        suite.verify(context=request.node.nodeid)
