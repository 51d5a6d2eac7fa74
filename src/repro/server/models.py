"""Validated request/response models for the control plane.

Everything a job needs is carried in its request model — the (tool ×
engine × fastpath) execution config included — so sessions are
constructed from validated data instead of process environment
variables.  Invalid configs are rejected at submission time with a
422; a job that validated can only fail for runtime reasons.
"""

from __future__ import annotations

from typing import Any, Dict, List, Literal, Optional

from pydantic import (
    BaseModel,
    ConfigDict,
    Field,
    field_validator,
    model_validator,
)

SWEEP_TARGETS = ("table2", "table3", "table4", "table5", "fig10", "fig11")


class ExecutionConfig(BaseModel):
    """The (tool × engine × fastpath) cell a run job executes in.

    ``None`` fields fall back to the server's
    :class:`~repro.runtime.session.ExecConfig` defaults, resolved once
    at app creation, never to a live environment read.
    """

    model_config = ConfigDict(extra="forbid")

    tool: str = "GiantSan"
    engine: Optional[Literal["tree", "compiled"]] = None
    fastpath: Optional[bool] = None
    interprocedural: Optional[bool] = None
    telemetry: bool = True

    @field_validator("tool")
    @classmethod
    def _known_tool(cls, value: str) -> str:
        from ..sanitizers import SANITIZER_FACTORIES

        if value not in SANITIZER_FACTORIES:
            known = ", ".join(sorted(SANITIZER_FACTORIES))
            raise ValueError(f"unknown tool {value!r}; known tools: {known}")
        return value


class ProgramSpec(BaseModel):
    """What to execute: a corpus reference or an inline JSON IR program.

    Corpus references: ``"demo"``, ``"callheavy"``, ``"spec:<name>"``
    (a Table 2 proxy), or ``"juliet:<case_id>"``.  Inline programs use
    the JSON IR documented in ``docs/SERVICE.md`` and are lowered
    through :mod:`repro.server.programs`.
    """

    model_config = ConfigDict(extra="forbid")

    corpus: Optional[str] = None
    ir: Optional[Dict[str, Any]] = None
    args: Optional[List[int]] = None

    @model_validator(mode="after")
    def _exactly_one_source(self) -> "ProgramSpec":
        if (self.corpus is None) == (self.ir is None):
            raise ValueError("provide exactly one of 'corpus' and 'ir'")
        if self.corpus is not None:
            _validate_corpus_ref(self.corpus)
        if self.ir is not None:
            # lower now: malformed IR is a submission-time 422, not a
            # failed job
            from .programs import load_program

            load_program(self.ir)
        return self


def _validate_corpus_ref(ref: str) -> None:
    from ..workloads import SPEC_BY_NAME

    if ref in ("demo", "callheavy"):
        return
    kind, _, name = ref.partition(":")
    if kind == "spec":
        if name not in SPEC_BY_NAME:
            known = ", ".join(sorted(SPEC_BY_NAME))
            raise ValueError(
                f"unknown spec program {name!r}; known programs: {known}"
            )
        return
    if kind == "juliet":
        if not name:
            raise ValueError("juliet reference needs a case id")
        # case existence is checked at run time: generating the suite
        # is too heavy for the submission path
        return
    raise ValueError(
        f"unknown corpus reference {ref!r}; expected 'demo', 'callheavy', "
        "'spec:<name>', or 'juliet:<case_id>'"
    )


class RunJobRequest(BaseModel):
    """Run one IR program under one execution config."""

    model_config = ConfigDict(extra="forbid")

    program: ProgramSpec
    config: ExecutionConfig = Field(default_factory=ExecutionConfig)
    max_instructions: int = Field(default=50_000_000, ge=1, le=500_000_000)


class SweepJobRequest(BaseModel):
    """Regenerate one of the paper's tables/figures."""

    model_config = ConfigDict(extra="forbid")

    target: Literal[SWEEP_TARGETS]  # type: ignore[valid-type]
    scale: Optional[int] = Field(default=None, ge=1, le=64)
    jobs: int = Field(default=1, ge=1)
    engine: Optional[Literal["tree", "compiled"]] = None


class FuzzJobRequest(BaseModel):
    """A bounded differential fuzz campaign."""

    model_config = ConfigDict(extra="forbid")

    iterations: int = Field(default=100, ge=1)
    seed: int = 0
    bug_probability: float = Field(default=0.55, ge=0.0, le=1.0)
    jobs: int = Field(default=1, ge=1)
    shrink: bool = True
    audit_elisions: bool = False

