"""The serving layer must answer ``/evaluate`` with NumPy absent.

``repro.serve`` is stdlib-first: a throwaway container that only needs
point costs (or a health probe) should not have to install the numeric
stack. ``/evaluate`` has one code path, the stdlib scalar one
(:func:`repro.engine.points.price_points`), with or without NumPy.
This file rebuilds the same numpy-blocked world as
``test_obs_nonumpy.py`` — an import hook refusing ``numpy`` around a
fresh import of the real package — then runs that path end to end
over HTTP: ``/evaluate`` serves ``backend: "python"`` values identical
to the ``engine.pykernels`` reference, ``/healthz`` stays green, and
the grid routes degrade honestly to 503 instead of lying with garbage.

Every import is lazy so the CI ``no-numpy`` job can run this file on a
stdlib-only interpreter.
"""

import contextlib
import importlib
import json
import math
import sys
import urllib.error
import urllib.request
import warnings

import pytest

BASE = {"n_transistors": 1e7, "feature_um": 0.18, "sd": 300.0,
        "n_wafers": 5_000.0, "yield_fraction": 0.4, "cost_per_cm2": 8.0}
BAD = {**BASE, "yield_fraction": -1.0}
#: ``λ²`` overflows a float: a domain error, not an ``OverflowError``.
HUGE = {**BASE, "feature_um": 1e200}


class _NumpyBlocker:
    """Meta-path hook that refuses every ``numpy`` import."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked for this test")
        return None


@contextlib.contextmanager
def _serve_without_numpy():
    """Yield ``repro.serve`` in a world where ``import numpy`` fails.

    The world must wrap the *calls*, not just the import: the grid
    routes import NumPy on first use, so tearing the blocker down
    before a request would let them load it.
    """
    blocker = _NumpyBlocker()
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.split(".")[0] in ("numpy", "repro")}
    sys.meta_path.insert(0, blocker)
    try:
        yield importlib.import_module("repro.serve")
    finally:
        sys.meta_path.remove(blocker)
        for name in list(sys.modules):
            if name.split(".")[0] == "repro":
                del sys.modules[name]
        sys.modules.update(hidden)


def _reference_cost(serve):
    """The scalar kernels' answer for ``BASE``, computed directly."""
    pykernels = importlib.import_module("repro.engine.pykernels")
    constants = importlib.import_module("repro.constants")
    cost = pykernels.total_transistor_cost(
        BASE["sd"], BASE["n_transistors"], BASE["feature_um"],
        BASE["n_wafers"], BASE["yield_fraction"], BASE["cost_per_cm2"],
        wafer_area_cm2=math.pi * 10.0 ** 2,
        a0=constants.EQ6_A0, p1=constants.EQ6_P1, p2=constants.EQ6_P2,
        sd0=constants.EQ6_SD0)
    area = pykernels.area_from_sd(
        BASE["sd"], BASE["n_transistors"], BASE["feature_um"])
    return cost, area


def _post(url, body_dict):
    request = urllib.request.Request(
        url, data=json.dumps(body_dict).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as reply:
        return json.loads(reply.read())


def test_import_and_service_fall_back_to_python():
    with _serve_without_numpy() as serve:
        assert "numpy" not in sys.modules
        request = serve.EvaluateRequest.from_dict({"scenario": BASE})
        response = serve.CostService().evaluate(request)
        assert "numpy" not in sys.modules
        assert response.backend == "python"
        cost, area = _reference_cost(serve)
        point = response.results[0]
        assert point.cost_per_transistor_usd == cost
        assert point.area_cm2 == area
        assert point.ok


def test_mask_policy_diagnostics_without_numpy():
    with _serve_without_numpy() as serve:
        request = serve.EvaluateRequest.from_dict(
            {"scenarios": [BASE, BAD], "policy": "mask"})
        response = serve.CostService().evaluate(request)
        assert [p.ok for p in response.results] == [True, False]
        assert len(response.diagnostics) == 1
        assert response.diagnostics[0].error_type == "DomainError"


def test_raise_policy_maps_to_domain_error_without_numpy():
    with _serve_without_numpy() as serve:
        errors = importlib.import_module("repro.errors")
        request = serve.EvaluateRequest.from_dict({"scenario": BAD})
        with pytest.raises(errors.DomainError, match="yield"):
            serve.CostService().evaluate(request)


def test_http_evaluate_and_healthz_without_numpy():
    with _serve_without_numpy() as serve:
        with serve.start_server() as handle:
            body = _post(f"{handle.url}/evaluate", {"scenario": BASE})
            assert body["backend"] == "python"
            cost, _ = _reference_cost(serve)
            assert body["results"][0]["cost_per_transistor_usd"] == cost

            with urllib.request.urlopen(f"{handle.url}/healthz",
                                        timeout=10) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["status"] == "ok"

            with urllib.request.urlopen(f"{handle.url}/metrics",
                                        timeout=10) as reply:
                assert reply.status == 200
            assert "numpy" not in sys.modules


def test_grid_routes_degrade_to_503_without_numpy():
    with _serve_without_numpy() as serve:
        with serve.start_server() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{handle.url}/sweep", {"scenario": BASE})
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["code"] == "ExecutionError"
            assert "numpy" in body["message"].lower()


def test_overflowing_feature_is_a_domain_error_without_numpy():
    with _serve_without_numpy() as serve, warnings.catch_warnings():
        warnings.simplefilter("error")
        with serve.start_server() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{handle.url}/evaluate", {"scenario": HUGE})
            assert excinfo.value.code == 422
            assert json.loads(excinfo.value.read())["code"] == "DomainError"

            body = _post(f"{handle.url}/evaluate",
                         {"scenarios": [HUGE, BASE], "policy": "mask"})
            assert [p["ok"] for p in body["results"]] == [False, True]
            [diagnostic] = body["diagnostics"]
            assert diagnostic["error_type"] == "DomainError"
            assert "lambda^2 overflows" in diagnostic["message"]
