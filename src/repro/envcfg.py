"""Typed registry of every ``REPRO_*`` environment variable.

Environment knobs used to be parsed ad hoc in nine modules (exec,
partasks, checkpoint, abft, chaos, conftest, ...), each with its own
copy of the int/float/choice validation boilerplate. This module is the
single source of truth: one :class:`EnvVar` entry per variable carrying
its name, type, default, bounds/choices, and the one-line description
the README environment table is checked against
(``tests/test_envcfg.py`` fails when the two drift).

Consumers call :func:`get`::

    from repro import envcfg
    workers = envcfg.get("REPRO_WORKERS")        # parsed + validated

Unset (or empty) variables return the registered default; malformed
values raise ``ValueError`` naming the variable — the same fail-fast
contract the scattered parsers implemented, with the same messages, so
a typo'd chaos seam still dies with one clear error instead of k opaque
task failures. :func:`validate_all` sweeps the whole registry (the
parent-side pre-flight check), and ``python -m repro.envcfg`` prints
the README-format markdown table.

The module is import-cycle free by design: it depends only on the
standard library, so every layer (``repro.parallel.exec``,
``repro.resilience.abft``, ``benchmarks/conftest.py``) can import it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

__all__ = [
    "EnvVar", "REGISTRY", "var", "get", "get_raw", "validate_all",
    "env_table", "markdown_table", "BITFLIP_TARGETS", "BENCH_SCALES",
]

#: SDC injection sites of the ``REPRO_CHAOS_BITFLIP_TARGET`` seam
#: (:mod:`repro.resilience.abft` imports this — single source).
BITFLIP_TARGETS = ("lu", "schur", "krylov", "transport")

#: Matrix scales understood by the benchmark suite.
BENCH_SCALES = ("tiny", "small", "medium")


def _mp_start_methods() -> list[str]:
    import multiprocessing as mp
    return sorted(mp.get_all_start_methods())


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable.

    ``kind`` selects the parser: ``"int"``/``"float"`` (numeric with an
    optional ``minimum``), ``"str"`` (opaque, validated downstream),
    ``"choice"`` (member of ``choices``, or of ``dynamic_choices()``
    evaluated at parse time), ``"flag01"`` (``'0'``/``'1'`` →
    bool), or ``"truthy"`` (any non-empty value → True). ``noun``
    is the phrase used in the parse-failure message ("an integer
    subdomain index", "a positive integer", ...); ``min_msg`` overrides
    the below-minimum message for variables whose historical error text
    differs from the generic ``must be >= {minimum}``.
    """

    name: str
    kind: str
    description: str
    default: object = None
    minimum: Optional[float] = None
    choices: tuple = ()
    dynamic_choices: Optional[Callable[[], list]] = field(
        default=None, repr=False)
    noun: str = ""
    min_msg: str = ""

    def parse(self, raw: str):
        """Parse+validate one raw string (never None/empty here)."""
        if self.kind == "int" or self.kind == "float":
            cast = int if self.kind == "int" else float
            noun = self.noun or ("an integer" if self.kind == "int"
                                 else "a number")
            try:
                value = cast(raw)
            except ValueError:
                raise ValueError(f"{self.name} must be {noun}, "
                                 f"got {raw!r}") from None
            if self.minimum is not None and value < self.minimum:
                msg = self.min_msg or f"must be >= {self.minimum:g}"
                raise ValueError(f"{self.name} {msg}, got {raw!r}")
            return value
        if self.kind == "choice":
            valid = (self.dynamic_choices() if self.dynamic_choices
                     else self.choices)
            if raw not in valid:
                raise ValueError(f"{self.name} must be one of {valid}, "
                                 f"got {raw!r}")
            return raw
        if self.kind == "flag01":
            if raw == "1":
                return True
            if raw == "0":
                return False
            raise ValueError(f"{self.name} must be '0' or '1', "
                             f"got {raw!r}")
        if self.kind == "truthy":
            return True
        return raw  # "str": validated by its consumer

    def get(self, env: Optional[Mapping[str, str]] = None):
        """The parsed value from ``env`` (default: ``os.environ``),
        or the registered default when unset/empty."""
        raw = (os.environ if env is None else env).get(self.name)
        if raw is None or raw == "":
            return self.default
        return self.parse(raw)


def _subdomain(name: str, description: str) -> EnvVar:
    return EnvVar(name, "int", description, minimum=0,
                  noun="an integer subdomain index")


_VARS = (
    # -- execution backends (repro.parallel.exec) --
    EnvVar("REPRO_BACKEND", "str",
           "Default execution backend (`serial`, `process`, optionally "
           "`:N`) when `RuntimeOptions(backend=None)`."),
    EnvVar("REPRO_WORKERS", "int",
           "Worker count for the backend chosen via `REPRO_BACKEND`.",
           minimum=1, noun="a positive integer",
           min_msg="must be a positive integer"),
    EnvVar("REPRO_MP_START", "choice",
           "Multiprocessing start method override "
           "(`fork`/`spawn`/`forkserver`).",
           dynamic_choices=_mp_start_methods),
    EnvVar("REPRO_TRANSPORT_CHECKSUM", "flag01",
           "`0` disables blake2b sealing of process-backend task results "
           "(default `1`, on).", default=True),
    # -- serving layer (repro.service) --
    EnvVar("REPRO_SERVICE_CACHE_BYTES", "int",
           "Byte budget of the `SolverService` session cache "
           "(default 256 MiB); least-recently-used sessions are evicted "
           "past it.", default=256 * 1024 * 1024, minimum=0),
    EnvVar("REPRO_SERVICE_BATCH_WINDOW_S", "float",
           "Micro-batching window of the `SolverService` request queue: "
           "how long a dispatch waits to coalesce same-matrix requests "
           "(default 0.005 s).", default=0.005, minimum=0.0),
    EnvVar("REPRO_SERVICE_MAX_PENDING", "int",
           "Backpressure limit of the `SolverService` request queue; "
           "submits past it are rejected with "
           "`ServiceOverloadedError` (default 256).",
           default=256, minimum=1, noun="a positive integer",
           min_msg="must be a positive integer"),
    # -- benchmarks --
    EnvVar("REPRO_BENCH_SCALE", "choice",
           "Matrix scale for `benchmarks/` runs (`tiny`/`small`/`medium`).",
           choices=BENCH_SCALES),
    EnvVar("REPRO_BENCH_RESULTS_DIR", "str",
           "Directory where benchmark text outputs are archived "
           "(default `benchmarks/results/`)."),
    EnvVar("REPRO_RUN_BENCH", "truthy",
           "Any non-empty value opts `pytest benchmarks/` into the full "
           "benchmark sweep (normally skipped).", default=False),
    # -- chaos seams --
    _subdomain("REPRO_CHAOS_CRASH_SUBDOMAIN",
               "Chaos: worker executing this subdomain dies mid-task "
               "(crash/failover drill)."),
    _subdomain("REPRO_CHAOS_STRAGGLE_SUBDOMAIN",
               "Chaos: this subdomain's task sleeps before returning "
               "(straggler drill)."),
    EnvVar("REPRO_CHAOS_STRAGGLE_S", "float",
           "Chaos: straggler sleep seconds (default 0.25).",
           default=0.25, minimum=0.0, noun="a number of seconds"),
    EnvVar("REPRO_CHAOS_BITFLIP_TARGET", "choice",
           "Chaos: SDC injection site — `lu`, `schur`, `krylov`, or "
           "`transport`.", choices=BITFLIP_TARGETS),
    EnvVar("REPRO_CHAOS_BITFLIP_SEED", "int",
           "Chaos: RNG seed for the flip; part of the one-shot key, so a "
           "new seed re-arms pooled workers (default 0).",
           default=0, minimum=0),
    EnvVar("REPRO_CHAOS_BITFLIP_SUBDOMAIN", "int",
           "Chaos: victim subdomain for subdomain-scoped targets "
           "(default 0).", default=0, minimum=0),
    EnvVar("REPRO_CHAOS_BITFLIP_COUNT", "int",
           "Chaos: number of bits to flip (default 1).",
           default=1, minimum=1),
    _subdomain("REPRO_CHECKPOINT_KILL_AFTER_SUBDOMAIN",
               "Chaos: SIGTERM the process right after this subdomain's "
               "checkpoint shard is written (restart drill)."),
)

REGISTRY: dict[str, EnvVar] = {v.name: v for v in _VARS}


def var(name: str) -> EnvVar:
    """The registry entry for ``name`` (KeyError on unregistered)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"{name} is not a registered REPRO_* variable; "
                       f"add it to repro.envcfg.REGISTRY") from None


def get(name: str, env: Optional[Mapping[str, str]] = None):
    """Parsed value of registered variable ``name`` (see
    :meth:`EnvVar.get`)."""
    return var(name).get(env)


def get_raw(name: str,
            env: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """The raw (unparsed) string, None when unset — for consumers whose
    validation is inherently downstream (backend spec strings)."""
    var(name)  # still insist the variable is registered
    return (os.environ if env is None else env).get(name)


def validate_all(env: Optional[Mapping[str, str]] = None) -> None:
    """Parse every registered variable that is set, raising the first
    ``ValueError`` (which names the variable). The pre-flight sweep for
    long-running entry points."""
    for v in REGISTRY.values():
        v.get(env)


def env_table() -> list[tuple[str, str]]:
    """(name, description) rows in registry order — what the README
    environment table must contain."""
    return [(v.name, v.description) for v in _VARS]


def markdown_table() -> str:
    """The README-format markdown environment table."""
    lines = ["| Variable | Meaning |", "| --- | --- |"]
    lines += [f"| `{name}` | {desc} |" for name, desc in env_table()]
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - trivial CLI
    print(markdown_table())
