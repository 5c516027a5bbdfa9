"""Tests for the execution backends (the runtime's substrate layer)."""

import pickle

import pytest

from repro.bb.block import BasicBlock
from repro.models.base import CachedCostModel, CallableCostModel
from repro.models.mca import PortPressureCostModel
from repro.runtime.backend import (
    BACKEND_ENV_VAR,
    WORKERS_ENV_VAR,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    resolve_backend,
)
from repro.utils.errors import BackendError


def _square(x):
    return x * x


@pytest.fixture
def blocks():
    return [
        BasicBlock.from_text("add rcx, rax\nmov rdx, rcx"),
        BasicBlock.from_text("xor edx, edx\ndiv rcx\nimul rax, rcx"),
        BasicBlock.from_text("pop rbx"),
        BasicBlock.from_text("mov ecx, edx\nlea rax, [rcx + rax - 1]"),
    ]


@pytest.fixture(params=["serial", "thread", "process"])
def backend(request):
    with resolve_backend(request.param, 2) as instance:
        yield instance


class TestMapBatch:
    def test_preserves_input_order(self, backend):
        assert backend.map_batch(_square, list(range(20))) == [
            x * x for x in range(20)
        ]

    def test_empty_batch(self, backend):
        assert backend.map_batch(_square, []) == []

    def test_predict_blocks_matches_serial(self, backend, blocks):
        model = PortPressureCostModel("hsw")
        expected = [model._predict(block) for block in blocks]
        assert backend.predict_blocks(model, blocks) == expected


class TestLifecycle:
    @pytest.mark.parametrize("name", available_backends())
    def test_close_is_idempotent(self, name):
        backend = resolve_backend(name, 2)
        backend.close()
        backend.close()
        assert backend.closed

    @pytest.mark.parametrize("name", available_backends())
    def test_use_after_close_rejected(self, name):
        backend = resolve_backend(name, 2)
        backend.close()
        with pytest.raises(BackendError):
            backend.map_batch(_square, [1, 2])

    def test_context_manager_closes(self):
        with ThreadBackend(2) as backend:
            backend.map_batch(_square, [1, 2, 3])
        assert backend.closed

    def test_thread_pool_released_on_close(self):
        backend = ThreadBackend(2)
        backend.map_batch(_square, [1, 2, 3])
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None

    def test_process_pool_released_on_close(self, blocks):
        backend = ProcessBackend(2)
        model = PortPressureCostModel("hsw")
        backend.predict_blocks(model, blocks)
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None


class TestIntrospection:
    def test_worker_counts(self):
        assert SerialBackend().workers == 1
        assert ThreadBackend(3).workers == 3
        assert ProcessBackend(2).workers == 2

    def test_zero_workers_means_sequential(self):
        # An explicit 0 asks for no parallelism, not for the machine default.
        assert ThreadBackend(0).workers == 1
        assert ProcessBackend(0).workers == 1

    def test_describe_names_the_backend(self):
        assert "process" in ProcessBackend(2).describe()
        assert "workers=2" in ProcessBackend(2).describe()

    def test_names(self):
        assert SerialBackend().name == "serial"
        assert ThreadBackend(1).name == "thread"
        assert ProcessBackend(1).name == "process"


class TestResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread", 2), ThreadBackend)
        assert isinstance(resolve_backend("process", 2), ProcessBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_instance_with_workers_rejected(self):
        with pytest.raises(BackendError):
            resolve_backend(SerialBackend(), workers=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            resolve_backend("quantum")

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        backend = resolve_backend(None)
        assert isinstance(backend, ThreadBackend)
        assert backend.workers == 3

    def test_bad_workers_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(BackendError):
            resolve_backend("thread")


class TestProcessBackendModelValidation:
    def test_lambda_model_rejected_with_clear_error(self):
        model = CallableCostModel(lambda b: 1.0, name="toy-lambda")
        backend = ProcessBackend(2)
        with pytest.raises(BackendError, match="not picklable") as excinfo:
            backend.prepare_model(model)
        message = str(excinfo.value)
        assert "toy-lambda" in message
        assert "serial or thread" in message

    def test_rejection_happens_at_install_time(self):
        model = CallableCostModel(lambda b: 1.0)
        with pytest.raises(BackendError):
            model.set_backend(ProcessBackend(2))

    def test_picklable_models_accepted(self):
        ProcessBackend(2).prepare_model(PortPressureCostModel("hsw"))


class TestModelBackendIntegration:
    def test_owned_backend_closes_with_model(self):
        backend = ThreadBackend(2)
        model = PortPressureCostModel("hsw").set_backend(backend, own=True)
        assert model.execution_backend is backend
        model.close()
        assert backend.closed

    def test_injected_backend_survives_model_close(self):
        backend = ThreadBackend(2)
        model = PortPressureCostModel("hsw")
        model.set_backend(backend)
        model.close()
        assert not backend.closed
        backend.close()

    def test_cached_model_delegates_backend_to_inner(self):
        backend = SerialBackend()
        cached = CachedCostModel(PortPressureCostModel("hsw"))
        cached.set_backend(backend)
        assert cached.inner.execution_backend is backend
        assert cached.execution_backend is backend

    def test_model_pickles_without_its_backend(self, blocks):
        model = PortPressureCostModel("hsw")
        with ThreadBackend(2) as backend:
            model.set_backend(backend)
            clone = pickle.loads(pickle.dumps(model))
        assert clone.execution_backend is None
        assert clone._predict(blocks[0]) == model._predict(blocks[0])

    def test_fanout_through_process_backend_matches_serial(self, blocks):
        serial = PortPressureCostModel("hsw")
        expected = serial.predict_batch(blocks)
        with ProcessBackend(2) as backend:
            model = PortPressureCostModel("hsw")
            model.set_backend(backend)
            assert model.predict_batch(blocks) == expected

    def test_process_backend_rebinds_when_the_model_changes(self, blocks):
        # One shared pool must never serve a stale worker-resident model.
        with ProcessBackend(2) as backend:
            light = PortPressureCostModel("hsw", dependency_weight=0.0)
            heavy = PortPressureCostModel("hsw", dependency_weight=1.0)
            assert backend.predict_blocks(light, blocks) == [
                light._predict(b) for b in blocks
            ]
            assert backend.predict_blocks(heavy, blocks) == [
                heavy._predict(b) for b in blocks
            ]

    def test_using_backend_is_a_borrow(self, blocks):
        model = PortPressureCostModel("hsw")
        configured = SerialBackend()
        model.set_backend(configured, own=True)
        with ThreadBackend(2) as temporary:
            with model.using_backend(temporary):
                assert model.execution_backend is temporary
                model.predict_batch(blocks)
            assert model.execution_backend is configured
        assert not configured.closed
        model.close()
