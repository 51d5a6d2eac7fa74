"""ExecConfig: one execution-config value, read from ``REPRO_*`` once.

Pins the one boolean grammar (typos rejected), that ``Session`` and
``run_overhead_study`` given no config resolve the environment, that
the CLI passes its config down without writing ``os.environ``, and —
with an AST scan — that no other module reads the environment.
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
#: The reference cell: with the memo off a session runs the tree walker.
REFERENCE_ENV = {"REPRO_FASTPATH": "0", "REPRO_INTERPROC": "0",
                 "REPRO_INSTRUMENT_CACHE": "0"}
REFERENCE_CELL = ExecConfig(fastpath=False, interprocedural=False,
                            memoize=False)


@pytest.fixture(autouse=True)
def _env(monkeypatch):
    for var in SWITCHES:
        monkeypatch.delenv(var, raising=False)
    return lambda env: [monkeypatch.setenv(k, v) for k, v in env.items()]


def test_four_boolean_fields_and_their_defaults():
    assert dataclasses.asdict(ExecConfig()) == {
        "fastpath": True, "interprocedural": True,
        "memoize": True, "invariants": False,
    }


# the "no" rows left the fast path and the memo on, and the "yes" row
# left the checker off, when each switch had its own parser
@pytest.mark.parametrize("env, expected", [
    ({}, ExecConfig()),
    ({"REPRO_FASTPATH": "no"}, ExecConfig(fastpath=False)),
    ({"REPRO_INSTRUMENT_CACHE": "no"}, ExecConfig(memoize=False)),
    ({"REPRO_INVARIANTS": "yes"}, ExecConfig(invariants=True)),
    ({"REPRO_INTERPROC": " Off "}, ExecConfig(interprocedural=False)),
    ({"REPRO_FASTPATH": "FALSE", "REPRO_INVARIANTS": "On\n"},
     ExecConfig(fastpath=False, invariants=True)),
    ({"REPRO_INSTRUMENT_CACHE": "0"}, ExecConfig(memoize=False)),
    ({"REPRO_INVARIANTS": " 1 ", "REPRO_FASTPATH": "true"},
     ExecConfig(invariants=True)),
    ({"REPRO_FASTPATH": ""}, ExecConfig()),  # empty counts as unset
    # names ExecConfig does not own are ignored
    ({"REPRO_SHADOW": "numpy", "REPRO_TELEMETRY": "x",
      "REPRO_FABRIC_SHM_BYTES": "x", "REPRO_BENCH_SCALE": "x",
      "REPRO_SERVE_PORT": "x"}, ExecConfig()),
])
def test_from_env(_env, env, expected):
    _env(env)
    assert ExecConfig.from_env() == expected


@pytest.mark.parametrize("var, raw", [
    ("REPRO_FASTPATH", "maybe"), ("REPRO_INSTRUMENT_CACHE", "2"),
    ("REPRO_INVARIANTS", "enabled"), ("REPRO_INTERPROC", "nope"),
])
def test_from_env_rejects_typos(_env, var, raw):
    _env({var: raw})
    with pytest.raises(ValueError, match=f"{var}='{raw}'.*1, true"):
        ExecConfig.from_env()


def test_pinned_fields_override_env_but_typos_still_fail(_env):
    _env({"REPRO_FASTPATH": "0", "REPRO_INTERPROC": "0"})
    assert ExecConfig.from_env(fastpath=True) == ExecConfig(
        interprocedural=False
    )
    _env({"REPRO_FASTPATH": "maybe"})
    with pytest.raises(ValueError, match="REPRO_FASTPATH"):
        ExecConfig.from_env(fastpath=True)


def test_no_config_honours_reference_cell(_env, monkeypatch):
    """Session() and run_overhead_study() resolve the environment."""
    _env(REFERENCE_ENV)
    session = Session("GiantSan")
    assert session.config == REFERENCE_CELL
    seen = set()
    monkeypatch.setattr(overhead, "Session", lambda tool, config, **kwargs: (
        seen.add(config) or Session(tool, config, **kwargs)
    ))
    overhead.run_overhead_study(
        ["GiantSan"], programs=[SPEC_BY_NAME["505.mcf_r"]], scale=1
    )
    assert seen == {REFERENCE_CELL}


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


def _env_reads(node):
    return {
        id(n) for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and n.attr in ("environ", "getenv")
        and isinstance(n.value, ast.Name) and n.value.id == "os"
        or isinstance(n, ast.ImportFrom) and n.module == "os"
        and {a.name for a in n.names} & {"environ", "getenv"}
    }


def test_environment_is_read_only_by_the_resolvers():
    found = set()
    for path in (SRC / "repro").rglob("*.py"):
        module, tree = path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text())
        allowed = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   and (module, f.name) in ENV_READERS and _env_reads(f)]
        found |= {(module, f.name) for f in allowed}
        assert _env_reads(tree) == set().union(*map(_env_reads, allowed)), (
            f"{module} reads the environment outside {ENV_READERS}"
        )
    assert found == ENV_READERS
