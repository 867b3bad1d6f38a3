"""Test cost — the extension §2.5 says "could be easily included".

The paper's model (4) omits the cost of production test for brevity
but notes it fits the same per-cm² framework. We include it as an
additive ``Ct_sq`` component with the canonical structure of test
economics:

* **tester time** — dominated by vector depth, which scales with the
  transistor count per cm², i.e. *inversely* with ``s_d``: denser
  silicon carries more logic to exercise per unit area;
* **per-die overhead** — handling/probe touchdown, independent of die
  content, so its per-cm² share falls as dice grow;
* **yield coupling** — bad dice are tested too (that is when they are
  found), so test cost per *good* transistor divides by ``Y`` exactly
  like the silicon does in eq. (3).

:class:`TestCostModel` exposes ``cost_per_cm2`` so
:class:`repro.cost.total.TotalCostModel` can fold it in as a third
``C*_sq`` term alongside ``Cm_sq`` and ``Cd_sq``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import pykernels as pyk
from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import check_nonnegative, check_positive

__all__ = ["TestCostModel", "DEFAULT_TEST_COST_MODEL"]


@dataclass(frozen=True)
class TestCostModel:
    """Per-cm² production test cost.

    (The leading "Test" names the manufacturing-test domain, not a
    pytest suite — ``__test__ = False`` tells pytest to skip it.)

    Attributes
    ----------
    seconds_per_mtransistor:
        Tester seconds needed per million transistors of logic content.
        Default 0.15 s/Mtx (structural/scan test era).
    tester_rate_usd_per_hour:
        Loaded cost of a tester-hour. Default $300/h.
    handling_usd_per_die:
        Fixed per-die probe/handling overhead. Default $0.02.
    """

    __test__ = False  # not a pytest class

    seconds_per_mtransistor: float = 0.15
    tester_rate_usd_per_hour: float = 300.0
    handling_usd_per_die: float = 0.02

    def __post_init__(self) -> None:
        check_nonnegative(self.seconds_per_mtransistor, "seconds_per_mtransistor")
        check_positive(self.tester_rate_usd_per_hour, "tester_rate_usd_per_hour")
        check_nonnegative(self.handling_usd_per_die, "handling_usd_per_die")

    def test_seconds_per_die(self, n_transistors):
        """Tester time for one die (s)."""
        n_transistors = check_positive(n_transistors, "n_transistors")
        return self.seconds_per_mtransistor * n_transistors / 1.0e6

    def cost_per_die(self, n_transistors):
        """Test cost for one die ($), good or bad."""
        seconds = self.test_seconds_per_die(n_transistors)
        return seconds * (self.tester_rate_usd_per_hour / 3600.0) + self.handling_usd_per_die

    @traced(equation="s2.5")
    def cost_per_cm2(self, sd, feature_um, n_transistors):
        """``Ct_sq``: test cost per cm² of fabricated silicon ($/cm²).

        Splits the per-die cost over the die area ``N_tr·s_d·λ²``. The
        tester-time part reduces to a pure density term
        ``rate · seconds_per_tx · T_d(s_d, λ)`` — independent of die
        size — while the handling part dilutes with area.
        """
        n_transistors = check_positive(n_transistors, "n_transistors")
        sd = check_positive(sd, "sd")
        feature_um = check_positive(feature_um, "feature_um")
        if isinstance(feature_um, float):
            lambda_sq = pyk.lambda_sq(feature_um)
        else:
            feature_cm = um_to_cm(feature_um)
            lambda_sq = feature_cm * feature_cm
        return pyk.test_cost_per_cm2(
            sd, lambda_sq, n_transistors,
            seconds_per_mtransistor=self.seconds_per_mtransistor,
            tester_rate_usd_per_hour=self.tester_rate_usd_per_hour,
            handling_usd_per_die=self.handling_usd_per_die)


DEFAULT_TEST_COST_MODEL = TestCostModel()
