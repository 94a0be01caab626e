"""A repeat read is a lookup: each vehicle remembers its last forecast.

The forecast of vehicle ``v`` on day ``t`` depends only on ``v``'s
history through ``t`` and on the fitted model that serves it, so a
vehicle's state remembers the last forecast a cached kernel served,
keyed on (day, kernel object).  A read whose key matches builds no
feature row and makes no kernel call.  These tests pin that the memo
is invisible: every read equals the first read of a fresh service fed
the same operations, and a stream of ingests, lifecycle events,
restores, breaker failures and repeated reads leaves the same state
(breaker and drift monitor included) as the same stream read without
the memo.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.serving.monitoring import DriftMonitor
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import MaintenancePredictionService

T_V = 200_000.0  # 10 steady days per cycle at 20 000 s/day
WINDOW = 2

HISTORIES = {
    "A": [18_000.0] * 25,  # OLD
    "B": [20_000.0] * 25,  # OLD
    "C": [24_000.0] * 25,  # OLD
    "D": [20_000.0] * 6,  # SEMI-NEW until it closes its first cycle
    "N": [5_000.0] * 6,  # NEW
    "S": [19_000.0] * 6,  # SEMI-NEW
}
IDS = sorted(HISTORIES)
OLD = ["A", "B", "C"]


def make_service(store_dir, algorithm="RF", breaker=None):
    service = MaintenancePredictionService(
        t_v=T_V,
        window=WINDOW,
        algorithm=algorithm,
        store=ModelStore(store_dir),
        breaker=breaker or CircuitBreaker(),
        monitor=DriftMonitor(min_samples=1),
    )
    for vid in IDS:
        service.register_vehicle(vid)
        service.ingest_series(vid, HISTORIES[vid])
    return service


def kernel_calls(service) -> int:
    return service.kernel_cache.stats()["batches"]


class TestRepeatReadIsALookup:
    def test_repeated_depot_read_makes_no_kernel_call(self, tmp_path, monkeypatch):
        service = make_service(tmp_path / "models")
        first = service.predict_batch(IDS)
        assert {f.strategy for f in first} == {
            "per-vehicle", "similarity", "unified"
        }
        rows = []
        feature_row = service._feature_row
        monkeypatch.setattr(
            service,
            "_feature_row",
            lambda *args: rows.append(args[0]) or feature_row(*args),
        )
        calls = kernel_calls(service)
        for _ in range(3):
            assert service.predict_batch(IDS) == first
        assert kernel_calls(service) == calls
        assert rows == []
        # N's day changes its key only: one kernel call, one row.
        service.ingest("N", 5_000.0)
        after = service.predict_batch(IDS)
        assert kernel_calls(service) == calls + 1
        assert rows == ["N"]
        assert [f for f in after if f.vehicle_id != "N"] == [
            f for f in first if f.vehicle_id != "N"
        ]
        reference = make_service(tmp_path / "reference")
        reference.ingest("N", 5_000.0)
        assert after == [reference.predict(vid) for vid in IDS]

    def test_hits_and_misses_are_counted_in_the_registry(self, tmp_path):
        service = make_service(tmp_path / "models")
        obs = Observability()
        service.obs = obs
        service.predict_batch(IDS)
        service.predict_batch(IDS)
        service.predict_batch(["A", "N"])
        counters = obs.registry.snapshot()["counters"]
        assert counters["service.forecast_memo{outcome=miss}"] == len(IDS)
        assert counters["service.forecast_memo{outcome=hit}"] == len(IDS) + 2

    def test_reinstalled_model_keeps_its_kernel_but_not_its_version(
        self, tmp_path
    ):
        """The same fitted model installed under a new version has the
        same kernel: the read is a hit, and its forecast carries the
        new version."""
        service = make_service(tmp_path / "models")
        (first,) = service.predict_batch(["A"])
        entry = service._models["per-vehicle:A"]
        service.install_model(
            "A", entry.predictor, trained_cycles=entry.key, version=99
        )
        calls = kernel_calls(service)
        (again,) = service.predict_batch(["A"])
        assert kernel_calls(service) == calls
        assert again.model_version == 99
        assert again == replace(first, model_version=99)

    def test_injected_kernel_misses(self, tmp_path):
        """A kernel other than the remembered one (here a wrapper the
        cache hands out) runs, and its forecast is remembered next."""
        service = make_service(tmp_path / "models")
        first = service.predict_batch(IDS)
        lookup = service.kernel_cache.get
        ran = []

        class Wrapped:
            def __init__(self, kernel):
                self.kernel, self.batch_safe = kernel, kernel.batch_safe

            def predict(self, X):
                ran.append(len(X))
                return self.kernel.predict(X)

        service.kernel_cache.get = lambda *args: Wrapped(lookup(*args))
        assert service.predict_batch(IDS) == first
        assert sum(ran) == len(IDS)

    def test_a_failed_kernel_never_keys_a_memo(self, tmp_path):
        """A vehicle re-routed past a failed kernel call is remembered
        under the kernel that served it, if any, never the failed one:
        once that kernel recovers, it runs again."""
        service = make_service(
            tmp_path / "models", breaker=CircuitBreaker(failure_threshold=99)
        )
        clean = service.predict_batch(["S"])
        assert clean[0].strategy == "similarity"
        scope = f"sim:{clean[0].donor_id}"
        lookup = service.kernel_cache.get

        class Flaky:
            """One kernel object that raises while ``down``."""

            def __init__(self, kernel):
                self.kernel, self.batch_safe = kernel, kernel.batch_safe
                self.down, self.calls = True, 0

            def predict(self, X):
                self.calls += 1
                if self.down:
                    raise RuntimeError(f"down {self.calls}")
                return self.kernel.predict(X)

        flaky = None

        def get(served, model, version):
            nonlocal flaky
            kernel = lookup(served, model, version)
            if served != scope:
                return kernel
            if flaky is None:
                flaky = Flaky(kernel)
            return flaky

        service.kernel_cache.get = get
        # Two failures with different messages: the second read's
        # Model_Uni forecast is a memo hit whose reason changed.
        for calls in (1, 2):
            (degraded,) = service.predict_batch(["S"])
            assert degraded.strategy == "unified"
            assert degraded.fallback_reason == (
                f"similarity: RuntimeError: down {calls}"
            )
        flaky.down = False
        assert service.predict_batch(["S"]) == clean
        assert flaky.calls == 3


# -- op streams ----------------------------------------------------------------


def promote(service, vehicle_id: str) -> None:
    """Train, persist and promote a challenger, as the controller does."""
    challenger = service._fit_vehicle_model(vehicle_id)
    cycles = len(service.series(vehicle_id).completed_cycles)
    version = service._persist(
        f"{vehicle_id}.per-vehicle",
        challenger,
        strategy="per-vehicle",
        trained_cycles=cycles,
    )
    service.apply_lifecycle_event(
        "promote",
        vehicle_id,
        version=version,
        trained_cycles=cycles,
        predictor=challenger,
    )


class World:
    """One service and its store, driven by an op stream; ``forget``
    drops every remembered forecast before each read."""

    def __init__(self, store_dir: Path, algorithm: str, forget=False):
        self.store_dir, self.algorithm = store_dir, algorithm
        self.forget = forget
        self.service = make_service(store_dir, algorithm)

    def apply(self, op) -> None:
        service, kind = self.service, op[0]
        if kind == "ingest":
            _, vid, days, rate = op
            service.ingest_batch([vid] * days, [rate] * days)
        elif kind == "promote":
            promote(service, op[1])
        elif kind in ("pin", "rollback"):
            versions = service.store.versions(f"{op[1]}.per-vehicle")
            if versions:
                service.apply_lifecycle_event(
                    kind, op[1], version=versions[op[2]]
                )
        elif kind == "unpin":
            service.apply_lifecycle_event("unpin", op[1])
        elif kind == "fail":  # a failure charged to one rung's breaker
            service.breaker.record_failure(f"{op[1]}:{op[2]}")
        elif kind == "roundtrip":
            restored = MaintenancePredictionService(
                t_v=T_V,
                window=WINDOW,
                algorithm=self.algorithm,
                store=ModelStore(self.store_dir),
                breaker=CircuitBreaker(),
                monitor=DriftMonitor(min_samples=1),
            )
            restored.load_state_dict(service.state_dict())
            self.service = restored

    def read(self, ids, repeats: int) -> list:
        reads = []
        for _ in range(repeats):
            if self.forget:
                for state in self.service._vehicles.values():
                    state.memo = None
            reads.append(self.service.predict_batch(ids))
        return reads


ops = st.one_of(
    st.tuples(
        st.just("ingest"),
        st.sampled_from(IDS),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([5_000.0, 20_000.0, 24_000.0]),
    ),
    st.tuples(st.just("promote"), st.sampled_from(OLD)),
    st.tuples(
        st.sampled_from(["pin", "rollback"]),
        st.sampled_from(OLD),
        st.sampled_from([0, -1]),
    ),
    st.tuples(st.just("unpin"), st.sampled_from(OLD)),
    st.tuples(st.just("roundtrip")),
    st.tuples(
        st.just("fail"),
        st.sampled_from(IDS),
        st.sampled_from(["per-vehicle", "similarity", "unified"]),
    ),
)

#: Each op is followed by a read: the whole fleet or a depot of it,
#: repeated one to three times.
steps = st.tuples(
    ops,
    st.one_of(
        st.just(IDS),
        st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True),
    ),
    st.integers(min_value=1, max_value=3),
)


@pytest.mark.parametrize("algorithm, examples", [("LR", 40), ("RF", 8)])
def test_memo_is_invisible_under_any_op_stream(algorithm, examples):
    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stream=st.lists(steps, min_size=1, max_size=8))
    def check(stream):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            memo = World(root / "memo", algorithm)
            twin = World(root / "twin", algorithm, forget=True)
            for step, (op, ids, repeats) in enumerate(stream):
                memo.apply(op)
                twin.apply(op)
                reads = memo.read(ids, repeats)
                assert twin.read(ids, repeats) == reads
                assert memo.service.state_dict() == twin.service.state_dict()
                if any(e[0] == "fail" for e, _, _ in stream[: step + 1]):
                    continue  # reads move the breaker: only the twin holds
                fresh = World(root / f"fresh{step}", algorithm)
                for earlier, _, _ in stream[: step + 1]:
                    fresh.apply(earlier)
                first = fresh.service.predict_batch(ids)
                assert all(read == first for read in reads)

    check()
