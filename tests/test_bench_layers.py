"""The benchmark traces library functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = load_layers()
    assert layers
    for prefix, module_name, path in layers:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{prefix}: {module_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), prefix
