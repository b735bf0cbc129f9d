"""The committed golden decision-stream fixture must hold.

``benchmarks/GOLDEN_streams.json`` pins a sha256 per bench panel and
policy over the full observer event stream plus the final metrics
snapshot. These tests recompute a subset on both engines (a full
ten-panel double-engine pass belongs to ``repro golden --check`` in
CI, not the unit suite) and sanity-check the hasher itself. The
fixture pins 0.1-scale runs; :data:`FULL_SCALE_OBJECTIVES` pins the
full-horizon objectives of the eight shared-buffer panels.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import PANELS, run_panel_bench
from repro.core.errors import ConfigError
from repro.goldens import (
    DEFAULT_GOLDEN_PATH,
    DecisionStreamHasher,
    check_goldens,
    compute_goldens,
    load_goldens,
    metrics_digest,
    update_goldens,
)

try:  # adversarial panels draw their traces from numpy's PCG64
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: One cheap panel per traffic model keeps the unit-suite pass fast;
#: adversarial needs numpy so it is split out below.
FAST_PANELS = ("uniform-proc-small", "mmpp-proc-small")

#: Per-policy objectives of each shared-buffer panel at scale 1.0, as
#: the reference engine recorded them before the vectorized engine
#: existed. Transmitted packets on the processing panels, transmitted
#: value on the value panels.
FULL_SCALE_OBJECTIVES = {
    "uniform-proc-small": {"LQD": 4287.0, "LWD": 4290.0, "BPD": 2916.0},
    "uniform-proc-large": {"LQD": 773.0, "LWD": 777.0, "BPD": 661.0},
    "mmpp-proc-small": {"LQD": 3555.0, "LWD": 3687.0, "BPD": 2627.0},
    "mmpp-proc-large": {"LQD": 331.0, "LWD": 370.0, "BPD": 247.0},
    "adversarial-proc-small": {"LQD": 4062.0, "LWD": 4073.0, "BPD": 1707.0},
    "adversarial-proc-large": {"LQD": 1230.0, "LWD": 1094.0, "BPD": 453.0},
    "adversarial-value-small": {
        "LQD-V": 120997.0, "MVD": 128243.0, "MRD": 130661.0,
    },
    "adversarial-value-large": {
        "LQD-V": 234413.0, "MVD": 234627.0, "MRD": 246602.0,
    },
}


def _fixture_path():
    path = DEFAULT_GOLDEN_PATH
    if not path.exists():
        pytest.skip(f"golden fixture {path} not committed")
    return path


def test_fixture_loads_and_covers_all_panels():
    doc = load_goldens(_fixture_path())
    assert set(doc["panels"]) == set(PANELS)
    for name, panel_doc in doc["panels"].items():
        assert set(panel_doc["policies"]) == set(PANELS[name].policies)
        for digests in panel_doc["policies"].values():
            assert len(digests["stream_sha256"]) == 64
            assert len(digests["metrics_sha256"]) == 64


def test_goldens_hold_on_both_engines_fast_panels():
    problems = check_goldens(
        _fixture_path(),
        panel_names=FAST_PANELS,
    )
    assert problems == [], "\n".join(problems)


@pytest.mark.skipif(not HAVE_NUMPY, reason="adversarial traces need numpy")
def test_goldens_hold_on_adversarial_panel():
    problems = check_goldens(
        _fixture_path(),
        panel_names=("adversarial-proc-small",),
    )
    assert problems == [], "\n".join(problems)


@pytest.mark.skipif(not HAVE_NUMPY, reason="panel traces need numpy")
@pytest.mark.parametrize("name", sorted(FULL_SCALE_OBJECTIVES))
def test_full_scale_objectives_hold_on_vectorized_engine(name):
    # The production engine over each panel's full horizon: equal
    # objectives mean the same decisions as the recorded reference run.
    result = run_panel_bench(PANELS[name], "vectorized")
    assert result.objectives() == FULL_SCALE_OBJECTIVES[name]


def test_compute_goldens_rejects_unknown_panel():
    with pytest.raises(ConfigError):
        compute_goldens(["no-such-panel"])


def test_compute_goldens_is_deterministic():
    once = compute_goldens(["uniform-proc-small"])
    twice = compute_goldens(["uniform-proc-small"])
    assert once["panels"] == twice["panels"]


def test_update_of_one_panel_keeps_the_other_panels(tmp_path):
    committed = _fixture_path().read_bytes()
    doc = json.loads(committed)
    assert (json.dumps(doc, indent=2) + "\n").encode() == committed
    # A stale entry for the panel being updated, the rest as committed.
    stale = doc["panels"]["uniform-proc-small"]["policies"]["LQD"]
    stale["metrics_sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    update_goldens(path, panel_names=["uniform-proc-small"])
    # The recomputed panel is mended in place; the other nine come
    # back byte-identical, in their committed order.
    assert path.read_bytes() == committed


def test_update_of_one_panel_refuses_another_scale(tmp_path):
    path = tmp_path / "golden.json"
    path.write_bytes(_fixture_path().read_bytes())
    with pytest.raises(ConfigError, match="slots_scale"):
        update_goldens(
            path, panel_names=["uniform-proc-small"], slots_scale=0.05
        )
    assert path.read_bytes() == _fixture_path().read_bytes()


# ----------------------------------------------------------------------
# Hasher sanity
# ----------------------------------------------------------------------


def test_hasher_counts_events_and_separates_streams():
    a, b = DecisionStreamHasher(), DecisionStreamHasher()
    assert a.events == 0 and a.hexdigest() == b.hexdigest()
    a.on_slot_begin(0, 2)
    a.on_decision(0, "accept", None)
    a.on_slot_end(0, 1)
    assert a.events == 3
    b.on_slot_begin(0, 2)
    b.on_decision(0, "drop", None)
    b.on_slot_end(0, 1)
    assert a.hexdigest() != b.hexdigest()


def test_hasher_victim_port_distinguished():
    a, b = DecisionStreamHasher(), DecisionStreamHasher()
    a.on_decision(4, "push_out", 1)
    b.on_decision(4, "push_out", 2)
    assert a.hexdigest() != b.hexdigest()


def test_metrics_digest_tracks_counters():
    from repro.core.metrics import SwitchMetrics
    from repro.core.packet import Packet

    a, b = SwitchMetrics(n_ports=2), SwitchMetrics(n_ports=2)
    assert metrics_digest(a) == metrics_digest(b)
    a.record_arrival(Packet(port=0, work=1, value=1.0, arrival_slot=0))
    assert metrics_digest(a) != metrics_digest(b)
