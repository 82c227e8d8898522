"""The package's public names and state, held against the CLI verbs."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import pkgutil
import sys
import textwrap

import pytest

import fracreact
from fracreact.cli import main
from fracreact.scenarios import list_scenarios

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# public, but read only by the benchmark harness
NOT_RUN_BY_CLI = {"fracreact.output.read_balance"}
# set by the benchmark harness, read by nothing (ROADMAP item 10)
NOT_READ_BY_CLI = {"fracreact.scenarios.Scenario.description"}

MODULES = [importlib.import_module(f"fracreact.{info.name}")
           for info in pkgutil.iter_modules(fracreact.__path__)]


def _state_names(cls) -> list[str]:
    """A dataclass's fields, else the attributes its ``__init__`` sets."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    if "__init__" not in vars(cls):
        return []
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"})


# each package class with state -> the names of that state
STATE = {cls: names for module in MODULES for cls in vars(module).values()
         if inspect.isclass(cls) and cls.__module__ == module.__name__
         and (names := _state_names(cls))}


def _read_hook(cls, read):
    """A ``__getattribute__`` for ``cls`` that adds ``cls.name`` to
    ``read`` when package code reads one of its state attributes;
    dataclass-generated methods (compiled from "<string>") do not count."""
    names = frozenset(STATE[cls])
    key = f"{cls.__module__}.{cls.__qualname__}"
    original = cls.__getattribute__

    def getattribute(self, name):
        if name in names:
            caller = sys._getframe(1)
            if (caller.f_globals.get("__name__", "").startswith("fracreact.")
                    and caller.f_code.co_filename != "<string>"):
                read.add(f"{key}.{name}")
        return original(self, name)
    return getattribute


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every CLI verb on every built-in and shipped config, one ``run``
    that fails in a scheme phase and one rejected ``validate``, run once
    with the code objects they call and the state attributes they read
    recorded."""
    tmp = tmp_path_factory.mktemp("cli")
    configs = [os.path.join(CONFIGS, name) for name in sorted(os.listdir(CONFIGS))]
    rejected = tmp / "rejected.ini"
    rejected.write_text("[domain]\nkind = interval\nnum_cells = 4\nsize = 2\n")
    # one short step: a long one dissolves the opening scenarios' whole
    # precipitate at once, which the pore update rejects
    out = ["--dt", "0.01", "--nt", "1", "--out", str(tmp)]
    argvs = [["run", target] + out for target in sorted(list_scenarios()) + configs]
    argvs += [["validate", cfg] for cfg in configs]
    argvs += [["list-scenarios"], ["study", "splitting-error", "--nt-list", "2,4"],
              # dt = 1 dissolves more than 1/eta of precipitate in one step
              ["run", "multi_fracture_opening", "--nt", "5", "--out", str(tmp)],
              ["validate", str(rejected)]]

    called, read = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    own = {cls: vars(cls).get("__getattribute__") for cls in STATE}
    for cls in STATE:
        cls.__getattribute__ = _read_hook(cls, read)
    previous = sys.getprofile()
    stderr = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
        for cls, method in own.items():
            if method is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = method
    return codes, stderr.getvalue(), called, read


def test_all_names_resolve_once():
    names = fracreact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fracreact, name), name


def test_cli_verbs_succeed(cli_runs):
    codes, err, _, _ = cli_runs
    assert codes == [0] * (len(codes) - 2) + [1, 1], err
    failed_run, rejected = err.splitlines()[-2:]
    assert failed_run.startswith("error: scheme step 9 (pore correction): ")
    assert "size: unknown key" in rejected


def test_every_public_function_runs_in_the_cli(cli_runs):
    """Each module-level public function of the package is called by
    some CLI verb; a helper only tests call belongs in the tests."""
    called = cli_runs[2]
    unused = [f"{module.__name__}.{name}" for module in MODULES
              for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_") and obj.__code__ not in called]
    assert sorted(set(unused) - NOT_RUN_BY_CLI) == []


def test_all_state_is_read_in_the_cli(cli_runs):
    """Every dataclass field and every attribute an ``__init__`` sets in
    the package is read by package code under some CLI verb: state that
    nothing reads does not belong in the scheme."""
    read = cli_runs[3]
    state = {f"{cls.__module__}.{cls.__qualname__}.{name}"
             for cls, names in STATE.items() for name in names}
    assert sorted(state - read - NOT_READ_BY_CLI) == []
    assert NOT_READ_BY_CLI.isdisjoint(read)
