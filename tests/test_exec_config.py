"""ExecConfig: one execution-config value, read from ``REPRO_*`` once.

Pins the one boolean grammar (typos rejected), that library entry
points given no config run ``ExecConfig()`` whatever the environment
says, that the CLI passes its config down without writing
``os.environ``, and — with an AST scan — that no other module reads the
environment and only the CLI calls ``ExecConfig.from_env``.
"""

import ast
import dataclasses
import os
from pathlib import Path

import pytest

import repro
from repro import ExecConfig, Session
from repro.analysis import overhead
from repro.cli import main
from repro.workloads.spec import SPEC_BY_NAME

SRC = Path(__file__).resolve().parents[1] / "src"
SWITCHES = [field.metadata["env"] for field in dataclasses.fields(ExecConfig)]
#: The reference cell's switches, which only the CLI may pick up.
REFERENCE_ENV = {"REPRO_FASTPATH": "0", "REPRO_INSTRUMENT_CACHE": "0"}


@pytest.fixture(autouse=True)
def _env(monkeypatch):
    for var in SWITCHES:
        monkeypatch.delenv(var, raising=False)
    return lambda env: [monkeypatch.setenv(k, v) for k, v in env.items()]


def test_two_boolean_fields_and_their_defaults():
    assert dataclasses.asdict(ExecConfig()) == {
        "fastpath": True, "memoize": True,
    }


# the "no" rows left the fast path and the memo on when each switch
# had its own parser
@pytest.mark.parametrize("env, expected", [
    ({}, ExecConfig()),
    ({"REPRO_FASTPATH": "no"}, ExecConfig(fastpath=False)),
    ({"REPRO_INSTRUMENT_CACHE": "no"}, ExecConfig(memoize=False)),
    ({"REPRO_FASTPATH": " Off "}, ExecConfig(fastpath=False)),
    ({"REPRO_FASTPATH": "FALSE", "REPRO_INSTRUMENT_CACHE": "On\n"},
     ExecConfig(fastpath=False, memoize=True)),
    ({"REPRO_INSTRUMENT_CACHE": "0"}, ExecConfig(memoize=False)),
    ({"REPRO_INSTRUMENT_CACHE": " 1 ", "REPRO_FASTPATH": "yes"},
     ExecConfig(fastpath=True, memoize=True)),
    ({"REPRO_FASTPATH": ""}, ExecConfig()),  # empty counts as unset
    # names ExecConfig does not own are ignored
    ({"REPRO_SHADOW": "numpy", "REPRO_TELEMETRY": "x",
      "REPRO_FABRIC_SHM_BYTES": "x", "REPRO_BENCH_SCALE": "x",
      "REPRO_SERVE_PORT": "x", "REPRO_INTERPROC": "0"}, ExecConfig()),
    # both off: the reference cell
    ({"REPRO_FASTPATH": "Off", "REPRO_INSTRUMENT_CACHE": "NO"},
     ExecConfig(fastpath=False, memoize=False)),
    # a retired switch is a foreign name: its value is never parsed
    ({"REPRO_INTERPROC": "nope"}, ExecConfig()),
])
def test_from_env(_env, env, expected):
    _env(env)
    assert ExecConfig.from_env() == expected


@pytest.mark.parametrize("var, raw", [
    ("REPRO_FASTPATH", "maybe"), ("REPRO_INSTRUMENT_CACHE", "2"),
    ("REPRO_FASTPATH", "enabled"), ("REPRO_INSTRUMENT_CACHE", "nope"),
])
def test_from_env_rejects_typos(_env, var, raw):
    _env({var: raw})
    with pytest.raises(ValueError, match=f"{var}='{raw}'.*1, true"):
        ExecConfig.from_env()


def test_library_ignores_the_environment(_env, monkeypatch):
    """Entry points given no config run ``ExecConfig()``: a library
    caller's result never depends on its process environment."""
    from repro.fuzz import driver
    from repro.server import create_app
    from repro.server.config import ServerConfig

    _env(REFERENCE_ENV)
    assert Session("GiantSan").config == ExecConfig()
    seen = set()
    monkeypatch.setattr(overhead, "Session", lambda tool, config, **kwargs: (
        seen.add(config) or Session(tool, config, **kwargs)
    ))
    overhead.run_overhead_study(
        ["GiantSan"], programs=[SPEC_BY_NAME["505.mcf_r"]], scale=1
    )
    monkeypatch.setattr(driver, "run_case", lambda case, *args: (
        seen.add(args[-1]) or driver.CaseReport(case, [])
    ))
    driver.fuzz_span(0, 0, 1)
    assert seen == {ExecConfig()}
    assert create_app(ServerConfig()).state.defaults == ExecConfig()


def test_cli_passes_its_config_without_writing_environ(
    _env, capsys, monkeypatch
):
    seen = []
    monkeypatch.setattr(repro, "Session", lambda tool, config: (
        seen.append(config) or Session(tool, config)
    ))
    _env({"REPRO_FASTPATH": "0"})
    before = dict(os.environ)
    assert main(["demo"]) == 0
    assert "heap-buffer-overflow" in capsys.readouterr().out
    assert seen == [ExecConfig(fastpath=False)]
    assert dict(os.environ) == before


def test_bad_switch_is_one_stderr_line_without_traceback(_env, capsys):
    _env({"REPRO_FASTPATH": "maybe"})
    assert main(["table1"]) == 2
    assert capsys.readouterr() == (
        "", "repro: invalid REPRO_FASTPATH='maybe': expected one of 1, "
        "true, on, yes, 0, false, off, no\n",
    )


#: The only functions that may touch ``os.environ``/``os.getenv``: the
#: execution switches and the server's REPRO_SERVE_* deployment settings.
ENV_READERS = {("repro/runtime/session.py", "from_env"),
               ("repro/server/config.py", "config_from_env")}
#: The only function that may call ``ExecConfig.from_env``.
FROM_ENV_CALLERS = {("repro/cli.py", "main")}


def _env_reads(node):
    return {
        id(n) for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr in ("environ", "getenv")
        and isinstance(n.value, ast.Name) and n.value.id == "os"
        or isinstance(n, ast.ImportFrom) and n.module == "os"
        and {a.name for a in n.names} & {"environ", "getenv"}
    }


def _from_env_calls(node):
    return {
        id(n) for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "from_env"
    }


def test_environment_is_read_only_by_the_resolvers():
    """Only the resolvers read the environment, and only the CLI calls
    ``ExecConfig.from_env``: library entry points take an ExecConfig."""
    scans = {_env_reads: ENV_READERS, _from_env_calls: FROM_ENV_CALLERS}
    found = {scan: set() for scan in scans}
    for path in (SRC / "repro").rglob("*.py"):
        module, tree = path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text())
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, ast.FunctionDef)]
        for scan, owners in scans.items():
            allowed = [f for f in functions
                       if (module, f.name) in owners and scan(f)]
            found[scan] |= {(module, f.name) for f in allowed}
            assert scan(tree) == set().union(*map(scan, allowed)), (
                f"{module}: {scan.__name__} outside {owners}"
            )
    assert found == scans
