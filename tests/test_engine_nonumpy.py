"""The scalar eq.-(4) kernels must work with NumPy entirely absent.

:mod:`repro.engine.pykernels` prices every single operating point, the
server's ``/evaluate`` included, on an interpreter without NumPy. The
module is imported here through a fresh copy of the package under an
import hook that *blocks* ``numpy`` (and purges any already-imported
copy for the duration), proving it stays importable stdlib-only.

This file itself keeps every ``repro``/``numpy`` import lazy so the
CI ``no-numpy`` job can run it on an interpreter without NumPy — the
cross-check against the NumPy-backed models then simply skips.
"""

import importlib
import sys

import pytest

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)

#: Literal eq.-(4) fixed parameters (paper-plausible, stdlib-only) for
#: the tests that need no parity with the real model objects.
LITERAL_PARAMS = dict(wafer_area_cm2=314.0, a0=2.0, p1=0.5, p2=1.0,
                      sd0=100.0, mask_cost_usd=0.0, utilization=1.0,
                      test=None)


class _NumpyBlocker:
    """Meta-path hook that refuses every ``numpy`` import."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked for this test")
        return None


def _load_pykernels_without_numpy():
    """Import a fresh ``repro.engine.pykernels`` where ``import numpy``
    fails; its ``DomainError`` is that fresh package's class."""
    blocker = _NumpyBlocker()
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.split(".")[0] in ("numpy", "repro")}
    sys.meta_path.insert(0, blocker)
    try:
        module = importlib.import_module("repro.engine.pykernels")
        assert "numpy" not in sys.modules
        return module
    finally:
        sys.meta_path.remove(blocker)
        for name in list(sys.modules):
            if name.split(".")[0] == "repro":
                del sys.modules[name]
        sys.modules.update(hidden)


@pytest.fixture(scope="module")
def pyk():
    return _load_pykernels_without_numpy()


@pytest.fixture(scope="module")
def repro_refs():
    """The NumPy-backed reference objects (skips when NumPy is absent)."""
    pytest.importorskip("numpy", exc_type=ImportError)
    from repro.cost import PAPER_FIGURE4_MODEL
    from repro.density import area_from_sd
    from repro.engine.kernels import Eq4SdKernel

    model = PAPER_FIGURE4_MODEL
    design = model.design_model
    test_model = model.test_model
    test = None if test_model is None else (
        test_model.seconds_per_mtransistor,
        test_model.tester_rate_usd_per_hour,
        test_model.handling_usd_per_die)
    params = {
        "wafer_area_cm2": model.wafer.area_cm2,
        "a0": design.a0, "p1": design.p1, "p2": design.p2,
        "sd0": design.sd0,
        "mask_cost_usd": float(model.mask_cost(FIG4A["feature_um"])),
        "utilization": model.utilization,
        "test": test,
    }
    return {"kernel": Eq4SdKernel(model, **FIG4A),
            "area_from_sd": area_from_sd, "params": params}


class TestStandaloneLoad:
    def test_loads_with_numpy_blocked(self, pyk):
        assert hasattr(pyk, "total_transistor_cost")

    def test_module_holds_no_numpy_object(self, pyk):
        assert "numpy" not in {getattr(value, "__name__", "")
                               for value in vars(pyk).values()}

    def test_evaluates_with_literal_parameters(self, pyk):
        cost = pyk.total_transistor_cost(
            300.0, FIG4A["n_transistors"], FIG4A["feature_um"],
            FIG4A["n_wafers"], FIG4A["yield_fraction"],
            FIG4A["cost_per_cm2"], **LITERAL_PARAMS)
        assert cost > 0.0


class TestNumericalParity:
    def test_area_matches_numpy_model(self, pyk, repro_refs):
        expected = float(repro_refs["area_from_sd"](300.0, 1e7, 0.18))
        got = pyk.area_from_sd(300.0, 1e7, 0.18)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sd", [150.0, 300.0, 600.0, 1100.0])
    def test_eq4_matches_numpy_model(self, pyk, repro_refs, sd):
        got = pyk.total_transistor_cost(
            sd, FIG4A["n_transistors"], FIG4A["feature_um"],
            FIG4A["n_wafers"], FIG4A["yield_fraction"],
            FIG4A["cost_per_cm2"], **repro_refs["params"])
        assert got == pytest.approx(repro_refs["kernel"].point(sd),
                                    rel=1e-12)


class TestDomainErrors:
    """The kernels raise :class:`repro.errors.DomainError` directly."""

    def test_infeasible_sd_raises_kernel_error(self, pyk):
        with pytest.raises(pyk.DomainError, match="s_d0=100.0"):
            pyk.total_transistor_cost(
                50.0, 1e7, 0.18, 5_000, 0.4, 8.0, **LITERAL_PARAMS)

    def test_bad_yield_raises_kernel_error(self, pyk):
        with pytest.raises(pyk.DomainError, match="yield_fraction"):
            pyk.total_transistor_cost(
                300.0, 1e7, 0.18, 5_000, 0.0, 8.0, **LITERAL_PARAMS)

    def test_kernel_error_is_a_value_error(self, pyk):
        # Generic ``except ValueError`` call sites keep catching it.
        with pytest.raises(ValueError):
            pyk.area_from_sd(-1.0, 1e7, 0.18)
