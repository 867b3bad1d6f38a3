"""Old keyword spellings and dotted metric names get no special handling.

``cm_sq=`` is an unknown keyword like any other, and a dotted metric
name read back from a JSONL export keeps the name it was written under.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.cost.total import PAPER_FIGURE4_MODEL
from repro.obs.exposition import registry_from_records


def test_old_keyword_is_unknown_and_dotted_metric_keeps_its_name():
    with pytest.raises(TypeError):
        PAPER_FIGURE4_MODEL.transistor_cost(
            cm_sq=8.0, sd=300.0, n_transistors=1e7, feature_um=0.18,
            n_wafers=5_000, yield_fraction=0.4)
    with pytest.raises(TypeError):
        Scenario(n_transistors=1e7, feature_um=0.18).replace(cm_sq=9.0)

    reg = registry_from_records([
        {"type": "metric", "kind": "counter",
         "name": "robust.quarantine.rows", "value": 4.0}])
    assert reg.counters["robust.quarantine.rows"].value == 4.0
    assert "robust_quarantine_rows_total" not in reg.counters
