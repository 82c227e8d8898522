"""The package's public names."""

import importlib
import inspect
import os
import pkgutil
import sys

import fracreact
from fracreact.cli import main
from fracreact.scenarios import list_scenarios

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# public, but read only by the benchmark harness
NOT_RUN_BY_CLI = {"fracreact.output.read_balance"}


def test_all_names_resolve_once():
    names = fracreact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fracreact, name), name


def test_every_public_function_runs_in_the_cli(tmp_path, capsys):
    """Each module-level public function of the package is called by
    some CLI verb; a helper only tests call belongs in the tests."""
    configs = [os.path.join(CONFIGS, name) for name in sorted(os.listdir(CONFIGS))]
    # one short step: a long one dissolves the opening scenarios' whole
    # precipitate at once, which the pore update rejects
    out = ["--dt", "0.01", "--nt", "1", "--out", str(tmp_path)]
    argvs = [["run", target] + out for target in sorted(list_scenarios()) + configs]
    argvs += [["validate", cfg] for cfg in configs]
    argvs += [["list-scenarios"], ["study", "splitting-error", "--nt-list", "2,4"]]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(argvs), capsys.readouterr().err

    modules = [importlib.import_module(f"fracreact.{info.name}")
               for info in pkgutil.iter_modules(fracreact.__path__)]
    unused = [f"{module.__name__}.{name}" for module in modules
              for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_") and obj.__code__ not in called]
    assert sorted(set(unused) - NOT_RUN_BY_CLI) == []
