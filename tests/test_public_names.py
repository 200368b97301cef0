"""Names that code outside the package relies on: the benchmark's traced
functions and the README's library example."""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_layers():
    """``bench/layers.py``, loaded by path (``bench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_bench_target_resolves():
    # The traced benchmark run counts a target it cannot find as
    # ``trace.absent`` instead of failing, so a renamed function would
    # silently drop its layer from every traced run.
    targets = load_bench_layers().TARGETS
    assert targets
    missing = []
    for target in targets:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(f"gpcn.{module_name}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(target)
    assert not missing, missing


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md:library-example", "exec"), {})
    rate, ess = map(float, capsys.readouterr().out.split())
    assert 0.0 < rate < 1.0 and ess > 0.0
