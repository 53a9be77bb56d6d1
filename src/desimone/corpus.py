"""Bundled example specifications, loadable by name.

``leaky_spec_text`` regenerates the truncated leaky chain for any cutoff; the
bundled ``leaky.spec`` is exactly ``leaky_spec_text(30)`` (a test pins this).
"""

from __future__ import annotations

from importlib import resources

from .rulespec import parse_spec

LEAKY_DEFAULT_CUTOFF = 30


def leaky_spec_text(cutoff=LEAKY_DEFAULT_CUTOFF):
    """A chain c0 .. c_cutoff: state c_n stops with weight 1/(2^n+2), else
    emits `a` and moves on; transitions out of the last state are dropped,
    so mass leaks and the system is not almost surely terminating."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    lines = [
        "# leaky chain: termination weight shrinks geometrically along the chain",
        "dialect weighted",
        "semiring rational",
        "labels a",
    ]
    lines.extend(f"op c{n} : 0" for n in range(cutoff + 1))
    lines.append("")
    for n in range(cutoff + 1):
        stop = 2**n + 2
        lines.append(f"rule c{n} -[1/{stop}]-> *")
        if n < cutoff:
            lines.append(f"rule c{n} -a[{stop - 1}/{stop}]-> c{n + 1}")
    return "\n".join(lines) + "\n"


SPEC_NAMES = (
    "de_simone_par",
    "prob_par",
    "leaky",
    "copy_nonaffine",
    "loop",
    "pair_affine",
    "pair_nonaffine",
)


def _bundled(name):
    if name not in SPEC_NAMES:
        raise KeyError(f"unknown bundled spec {name!r}; have {SPEC_NAMES}")
    return resources.files("desimone").joinpath(f"specs/{name}.spec")


def spec_text(name):
    return _bundled(name).read_text()


def load_spec(name):
    return parse_spec(spec_text(name))


def spec_path(name):
    """Filesystem path of a bundled spec (for handing to the CLI)."""
    return str(_bundled(name))
